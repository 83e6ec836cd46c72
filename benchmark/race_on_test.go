//go:build race

package main

// Under the race detector the engine runs several times slower and cannot
// keep the paced workload's schedule; the run is then (rightly) rejected
// as a growing backlog, so the smoke tests leave tenant_fanout out.
const raceBuild = true
