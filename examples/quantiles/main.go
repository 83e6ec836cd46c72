// Quantiles: the Greenwald-Khanna epsilon-approximate quantile summary as
// a user-defined aggregate inside a grouping query — the integration the
// paper's §8 prescribes for holistic algorithms whose inter-sample
// communication exceeds the sampling operator's per-sample structure.
//
// The query reports the 25th, 75th and 99th percentile packet length per
// source, per minute, with epsilon = 0.5% rank error, using bounded space
// per group. (The median of internet packet sizes sits on a knife edge —
// ~50% of packets are 40-byte acks — so stable percentiles away from the
// mass point demonstrate the summary better.)
//
// Run with: go run ./examples/quantiles
package main

import (
	"fmt"
	"log"
	"sort"

	"streamop"
)

func main() {
	reg := streamop.DefaultRegistry(1)
	if err := streamop.RegisterQuantileUDAF(reg); err != nil {
		log.Fatal(err)
	}

	q, err := streamop.Compile(`
SELECT tb, srcIP, count(*), quantile(len, 0.25, 0.005), quantile(len, 0.75, 0.005), quantile(len, 0.99, 0.005)
FROM PKT
GROUP BY time/60 as tb, srcIP
HAVING count(*) >= 20000`, streamop.Options{Registry: reg})
	if err != nil {
		log.Fatal(err)
	}

	feed, err := streamop.NewSteadyFeed(streamop.DefaultSteady(1, 59.9))
	if err != nil {
		log.Fatal(err)
	}

	// Keep exact per-source lengths for the top source, to validate.
	exact := map[uint32][]int{}
	pkts := make([]streamop.Packet, 0, 512)
	for more := true; more; {
		var p streamop.Packet
		if p, more = feed.Next(); more {
			exact[p.SrcIP] = append(exact[p.SrcIP], int(p.Len))
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

	fmt.Println("per-source packet-length quantiles (sources with >= 20k packets):")
	fmt.Println("source IP         packets    ~p25  exact    ~p75  exact    ~p99  exact")
	for _, row := range q.Collected {
		src := uint32(row.Values[1].Uint())
		lens := exact[src]
		sort.Ints(lens)
		fmt.Printf("%-15s %9d %7.0f %6d %7.0f %6d %7.0f %6d\n",
			ipString(src), row.Values[2].AsInt(),
			row.Values[3].AsFloat(), lens[len(lens)/4],
			row.Values[4].AsFloat(), lens[len(lens)*3/4],
			row.Values[5].AsFloat(), lens[len(lens)*99/100])
	}
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", ip>>24, ip>>16&0xff, ip>>8&0xff, ip&0xff)
}
