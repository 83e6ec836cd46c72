// Netmon: per-source traffic reports from one subset-sum sample.
//
// The point of subset-sum sampling (and why AT&T ran it in production) is
// that a single fixed-size sample answers *any* subset question after the
// fact: here we estimate per-source byte counts from a 2000-packet sample
// and compare them with exact counters, without having decided in advance
// which sources to track.
//
// Run with: go run ./examples/netmon
package main

import (
	"fmt"
	"log"
	"sort"

	"streamop"
)

func main() {
	const window = 10 // seconds
	q, err := streamop.Compile(fmt.Sprintf(`
SELECT tb, srcIP, uts, UMAX(sum(len), ssthreshold()) AS adjlen
FROM PKT
WHERE ssample(len, 2000, 2, 10) = TRUE
GROUP BY time/%d as tb, srcIP, uts
HAVING ssfinal_clean(sum(len), count_distinct$(*)) = TRUE
CLEANING WHEN ssdo_clean(count_distinct$(*)) = TRUE
CLEANING BY ssclean_with(sum(len)) = TRUE`, window), streamop.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	feed, err := streamop.NewSteadyFeed(streamop.DefaultSteady(7, float64(window)-0.01))
	if err != nil {
		log.Fatal(err)
	}

	exact := map[uint64]float64{}
	var total float64
	pkts := make([]streamop.Packet, 0, 512)
	for more := true; more; {
		var p streamop.Packet
		if p, more = feed.Next(); more {
			exact[uint64(p.SrcIP)] += float64(p.Len)
			total += float64(p.Len)
			pkts = append(pkts, p)
		}
		if len(pkts) == cap(pkts) || !more {
			if err := q.ProcessPackets(pkts); err != nil {
				log.Fatal(err)
			}
			pkts = pkts[:0]
		}
	}
	if err := q.Flush(); err != nil {
		log.Fatal(err)
	}

	// Subset-sum over the sample: group adjusted weights by source.
	est := map[uint64]float64{}
	for _, row := range q.Collected {
		est[row.Values[1].Uint()] += row.Values[3].AsFloat()
	}

	// Rank sources by exact volume and report the top 10 estimates.
	type src struct {
		ip    uint64
		bytes float64
	}
	var ranked []src
	for ip, b := range exact {
		ranked = append(ranked, src{ip, b})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].bytes > ranked[j].bytes })

	fmt.Printf("top sources by volume, exact vs estimated from %d samples:\n\n", len(q.Collected))
	fmt.Println("source IP           exact bytes     estimated     rel.err   share")
	for i := 0; i < 10 && i < len(ranked); i++ {
		r := ranked[i]
		e := est[r.ip]
		fmt.Printf("%-15s %14.0f %13.0f %+10.3f   %4.1f%%\n",
			ipString(uint32(r.ip)), r.bytes, e, (e-r.bytes)/r.bytes, 100*r.bytes/total)
	}
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24, ip>>16&0xff, ip>>8&0xff, ip&0xff)
}
