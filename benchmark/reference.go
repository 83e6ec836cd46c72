package main

import "streamop/internal/trace"

// The reference for the aggregating workloads: a deliberately naive
// map-and-slice evaluation of the tap query and of each tenant's query
// over it, sharing no code with the engine beyond the packet type.

// refRow is one (window, key) aggregate: Σ len and packet count.
type refRow struct {
	tb, key, bytes, cnt uint64
}

// bySrc and byPair are the grouping keys of the two taps.
func bySrc(p trace.Packet) uint64  { return uint64(p.SrcIP) }
func byPair(p trace.Packet) uint64 { return uint64(p.SrcIP)<<32 | uint64(p.DstIP) }

// refTap evaluates
//
//	SELECT tb, key, sum(len), count(*) FROM PKT GROUP BY time/1 AS tb, key
//
// over pkts, windows in stream order.
func refTap(pkts []trace.Packet, key func(trace.Packet) uint64) []refRow {
	type gk struct{ tb, key uint64 }
	groups := map[gk]int{}
	var rows []refRow
	for _, p := range pkts {
		k := gk{p.Time / 1e9, key(p)}
		i, ok := groups[k]
		if !ok {
			i = len(rows)
			groups[k] = i
			rows = append(rows, refRow{tb: k.tb, key: k.key})
		}
		rows[i].bytes += uint64(p.Len)
		rows[i].cnt++
	}
	return rows
}

// refRegroup evaluates the re-aggregating tenant over the tap's rows:
//
//	SELECT tb, srcIP/256, sum(bytes), sum(cnt) ... GROUP BY tb, srcIP/256
func refRegroup(tap []refRow) []refRow {
	type gk struct{ tb, net uint64 }
	groups := map[gk]int{}
	var rows []refRow
	for _, r := range tap {
		k := gk{r.tb, r.key / 256}
		i, ok := groups[k]
		if !ok {
			i = len(rows)
			groups[k] = i
			rows = append(rows, refRow{tb: k.tb, key: k.net})
		}
		rows[i].bytes += r.bytes
		rows[i].cnt += r.cnt
	}
	return rows
}

// refSelect keeps the tap rows a selection tenant's WHERE srcIP % mod <>
// rem admits (mod 0 keeps everything).
func refSelect(tap []refRow, mod, rem uint64) []refRow {
	if mod == 0 {
		return tap
	}
	var rows []refRow
	for _, r := range tap {
		if r.key%mod != rem {
			rows = append(rows, r)
		}
	}
	return rows
}

// refDigest folds rows into an order-independent digest, replayed for
// each of laps laps with the window number shifted by lapSeconds — what a
// looping feed makes of one lap's aggregates.
func refDigest(rows []refRow, laps int, lapSeconds uint64) digest {
	var d digest
	for l := 0; l < laps; l++ {
		shift := uint64(l) * lapSeconds
		for _, r := range rows {
			d.add(hashWords(r.tb+shift, r.key, r.bytes, r.cnt))
		}
	}
	return d
}

// refQuota replays a token bucket of rate rows/s of stream time and depth
// burst over per-window row counts (one burst per window, a full second
// apart) and returns the rows admitted and shed.
func refQuota(perWindow []uint64, rate, burst float64) (admitted, shed uint64) {
	tokens := burst
	for i, k := range perWindow {
		if i > 0 {
			if tokens += rate; tokens > burst {
				tokens = burst
			}
		}
		a := uint64(tokens)
		if a > k {
			a = k
		}
		tokens -= float64(a)
		admitted += a
		shed += k - a
	}
	return admitted, shed
}
