// Command tracegen generates a synthetic packet trace and writes it in the
// repository's binary trace format, so experiments can replay identical
// captures.
//
// Usage:
//
//	tracegen -feed bursty -duration 60 -seed 7 -out research.sopt
//	tracegen -feed steady -duration 10 -out dc.sopt
package main

import (
	"flag"
	"fmt"
	"os"

	"streamop/internal/trace"
)

func main() {
	feedKind := flag.String("feed", "steady", "feed: "+trace.FeedNames)
	duration := flag.Float64("duration", 10, "simulated duration in seconds")
	seed := flag.Uint64("seed", 1, "random seed")
	out := flag.String("out", "", "output file (required)")
	flag.Parse()

	if err := run(*feedKind, *duration, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(feedKind string, duration float64, seed uint64, out string) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	feed, err := trace.Open(feedKind, seed, duration)
	if err != nil {
		return err
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for {
		p, ok := feed.Next()
		if !ok {
			break
		}
		if err := w.Write(p); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d packets to %s\n", w.Count(), out)
	return nil
}
