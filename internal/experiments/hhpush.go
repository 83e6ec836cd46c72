package experiments

import (
	"streamop/internal/trace"
	"streamop/internal/tuple"
)

// HHPushResult compares feeding the Manku-Motwani heavy hitters query from
// a plain low-level selection against feeding it from a fixed-size
// low-level partial aggregation — the §8 suggestion that "the heavy
// hitters algorithm would be best supported by aggregation at the
// low-level queries".
type HHPushResult struct {
	Packets int64
	// SelectionForwarded / PartialForwarded are the tuples each low-level
	// configuration pushed to the heavy-hitter node.
	SelectionForwarded, PartialForwarded int64
	// Evictions is the collision count of the 256-slot partial table.
	Evictions int64
	// HighCPUSelection / HighCPUPartial are the heavy-hitter node's CPU
	// fractions.
	HighCPUSelection, HighCPUPartial float64
	// HeavyFoundSelection / HeavyFoundPartial report whether the dominant
	// source survived to the output in each configuration.
	HeavyFoundSelection, HeavyFoundPartial bool
}

// hhPushRun runs one configuration over a fresh bursty feed: the heavy
// hitters query (node "hh") fed by a plain selection, or with partial set
// by a 256-slot low-level partial aggregation. found reports whether the
// dominant source reached the output.
func hhPushRun(seed uint64, durationSec float64, partial bool) (c *chain, found bool, err error) {
	lowSrc, slots, highSrc := `SELECT time, srcIP, len, uts FROM PKT`, 0, `
SELECT tb, srcIP, sum(len), count(*)
FROM low
GROUP BY time/60 as tb, srcIP
HAVING count(*) >= 20000
CLEANING WHEN local_count(1000) = TRUE
CLEANING BY count(*) >= current_bucket() - first(current_bucket())`
	if partial {
		lowSrc, slots, highSrc = `SELECT tb, srcIP, sum(len) AS bytes, count(*) AS pkts FROM PKT GROUP BY time/60 as tb, srcIP`, 256, `
SELECT tb2, srcIP, sum(bytes), sum(pkts)
FROM low
GROUP BY tb/1 as tb2, srcIP
HAVING sum(pkts) >= 20000
CLEANING WHEN local_count(200) = TRUE
CLEANING BY sum(pkts) >= current_bucket() - first(current_bucket())`
	}
	if c, err = buildChain(1<<14, seed, lowSrc, slots, stage{"hh", highSrc}); err != nil {
		return nil, false, err
	}
	// The bursty feed's Zipf sources make 10.0.0.0 the dominant sender.
	const heavy = 0x0a000000
	c.high[0].Subscribe(func(row tuple.Tuple) error {
		found = found || row[1].Uint() == heavy
		return nil
	})
	feed, err := trace.NewBursty(trace.DefaultBursty(seed, durationSec))
	if err != nil {
		return nil, false, err
	}
	err = c.Run(feed)
	return c, found, err
}

// HHPush runs both configurations over the same bursty feed.
func HHPush(seed uint64, durationSec float64) (HHPushResult, error) {
	sel, selFound, err := hhPushRun(seed, durationSec, false)
	if err != nil {
		return HHPushResult{}, err
	}
	par, parFound, err := hhPushRun(seed, durationSec, true)
	if err != nil {
		return HHPushResult{}, err
	}
	return HHPushResult{
		Packets:             sel.Packets(),
		SelectionForwarded:  sel.low.Stats().TuplesOut,
		PartialForwarded:    par.low.Stats().TuplesOut,
		Evictions:           par.table.Evictions(),
		HighCPUSelection:    sel.Utilization(sel.high[0]),
		HighCPUPartial:      par.Utilization(par.high[0]),
		HeavyFoundSelection: selFound,
		HeavyFoundPartial:   parFound,
	}, nil
}
