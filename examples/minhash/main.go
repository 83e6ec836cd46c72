// Minhash: per-source destination-set signatures via the min-hash query of
// §6.6, used to find sources that talk to similar sets of destinations.
//
// The query keeps, per source, the 100 smallest hash values of the
// destinations it contacted — a k-minimum-values signature maintained with
// the kth_smallest_value$ superaggregate. Comparing two sources'
// signatures estimates the Jaccard resemblance of their destination sets;
// we verify against the exact value.
//
// Run with: go run ./examples/minhash
package main

import (
	"fmt"
	"log"
	"sort"

	"streamop"
	"streamop/internal/sample/minhash"
)

func main() {
	q, err := streamop.Compile(`
SELECT tb, srcIP, HX
FROM PKT
WHERE HX <= Kth_smallest_value$(HX, 100)
GROUP BY time/60 as tb, srcIP, H(destIP) as HX
SUPERGROUP BY tb, srcIP
HAVING HX <= Kth_smallest_value$(HX, 100)
CLEANING WHEN count_distinct$(*) >= 100
CLEANING BY HX <= Kth_smallest_value$(HX, 100)`, streamop.Options{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	// Three sources: A and B share most destinations, C is disjoint.
	feed, err := streamop.NewSteadyFeed(streamop.DefaultSteady(5, 20))
	if err != nil {
		log.Fatal(err)
	}
	exactDests := map[uint32]map[uint32]bool{}
	pkts := make([]streamop.Packet, 0, 512)
	for more := true; more; {
		var p streamop.Packet
		if p, more = feed.Next(); more {
			// Relabel sources to three hosts and carve destination ranges:
			// A uses dests 0-999, B uses 300-1299 (70% overlap), C 5000-5999.
			switch p.SrcIP % 3 {
			case 0:
				p.SrcIP = 0x0a0000aa
				p.DstIP = p.DstIP % 1000
			case 1:
				p.SrcIP = 0x0a0000bb
				p.DstIP = 300 + p.DstIP%1000
			default:
				p.SrcIP = 0x0a0000cc
				p.DstIP = 5000 + p.DstIP%1000
			}
			if exactDests[p.SrcIP] == nil {
				exactDests[p.SrcIP] = map[uint32]bool{}
			}
			exactDests[p.SrcIP][p.DstIP] = true
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

	// Collect per-source signatures from the query output.
	sigs := map[uint32][]uint64{}
	for _, row := range q.Collected {
		src := uint32(row.Values[1].Uint())
		sigs[src] = append(sigs[src], row.Values[2].Uint())
	}
	for _, sig := range sigs {
		sort.Slice(sig, func(i, j int) bool { return sig[i] < sig[j] })
	}

	a, b, c := uint32(0x0a0000aa), uint32(0x0a0000bb), uint32(0x0a0000cc)
	fmt.Printf("signature sizes: A=%d B=%d C=%d\n\n", len(sigs[a]), len(sigs[b]), len(sigs[c]))
	fmt.Println("pair   estimated resemblance   exact Jaccard")
	for _, pair := range [][2]uint32{{a, b}, {a, c}, {b, c}} {
		est := minhash.Resemblance(sigs[pair[0]], sigs[pair[1]], 100)
		exact := jaccard(exactDests[pair[0]], exactDests[pair[1]])
		fmt.Printf("%c-%c    %21.3f   %13.3f\n",
			'A'+pairIdx(pair[0]), 'A'+pairIdx(pair[1]), est, exact)
	}
}

func pairIdx(src uint32) rune {
	switch src {
	case 0x0a0000aa:
		return 0
	case 0x0a0000bb:
		return 1
	default:
		return 2
	}
}

func jaccard(a, b map[uint32]bool) float64 {
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
