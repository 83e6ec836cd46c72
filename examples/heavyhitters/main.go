// Heavyhitters: the Manku-Motwani lossy counting algorithm expressed as a
// sampling-operator query (§6.6 of the paper), reporting the sources that
// send at least 2,500 packets per minute (about 0.3% of the stream).
//
// local_count(w) fires the cleaning phase at every bucket boundary;
// first(current_bucket()) records the bucket in which a group appeared, so
// CLEANING BY count(*) >= current_bucket() - first(current_bucket()) keeps
// exactly the lossy-counting survivors.
//
// Run with: go run ./examples/heavyhitters
package main

import (
	"fmt"
	"log"

	"streamop"
)

func main() {
	// epsilon = 1/w = 0.1%; the support threshold is applied in HAVING.
	q, err := streamop.Compile(`
SELECT tb, srcIP, sum(len), count(*)
FROM PKT
GROUP BY time/60 as tb, srcIP
HAVING count(*) >= 2500
CLEANING WHEN local_count(1000) = TRUE
CLEANING BY count(*) >= current_bucket() - first(current_bucket())`,
		streamop.Options{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	// One minute of bursty traffic; Zipf sources guarantee heavy hitters.
	feed, err := streamop.NewBurstyFeed(streamop.DefaultBursty(3, 59.9))
	if err != nil {
		log.Fatal(err)
	}
	exact := map[uint64]int64{}
	var packets int64
	pkts := make([]streamop.Packet, 0, 512)
	for more := true; more; {
		var p streamop.Packet
		if p, more = feed.Next(); more {
			exact[uint64(p.SrcIP)]++
			packets++
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

	st := q.Stats()
	fmt.Printf("%d packets, %d distinct sources; operator tracked at most a few thousand groups\n",
		packets, len(exact))
	fmt.Printf("groups created %d, evicted by cleaning %d, cleaning phases %d\n\n",
		st.GroupsCreated, st.GroupsEvicted, st.Cleanings)

	fmt.Println("heavy hitters (>= 2500 packets):")
	fmt.Println("source IP         counted     exact    bytes")
	for _, row := range q.Collected {
		src := row.Values[1].Uint()
		fmt.Printf("%-15s %9d %9d %9d\n",
			ipString(uint32(src)), row.Values[3].AsInt(), exact[src], row.Values[2].AsInt())
	}
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24, ip>>16&0xff, ip>>8&0xff, ip&0xff)
}
