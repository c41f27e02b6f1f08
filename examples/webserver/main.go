// Webserver: run the Apache workload through the execution-driven timing
// simulator (§5) and report the runtime/traffic tradeoff — the paper's
// headline result that a predictor reaches most of snooping's performance
// at a fraction of its bandwidth.
//
// Run with:
//
//	go run ./examples/webserver
package main

import (
	"context"
	"fmt"
	"log"

	"destset"
)

const timedMisses = 60_000

func main() {
	// Snooping, directory, and multicast snooping with two predictors,
	// all replaying one Apache dataset: 60k warm-up misses, then the
	// timed ones.
	specs := []destset.SimSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
	}
	for _, policy := range []destset.Policy{destset.OwnerGroup, destset.Group} {
		specs = append(specs, destset.SimSpec{Protocol: destset.ProtocolMulticast, Policy: policy, UsePolicy: true})
	}
	runner := destset.NewTimingRunner(specs,
		[]destset.WorkloadSpec{{Name: "apache", Warm: 60_000, Measure: timedMisses}},
	)
	results, err := runner.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Apache, 16-node timing simulation (%d timed misses)\n\n", timedMisses)
	fmt.Printf("%-36s %12s %14s %12s\n", "configuration", "runtime(us)", "avg miss(ns)", "bytes/miss")
	for _, r := range results {
		res := r.Result
		fmt.Printf("%-36s %12.1f %14.1f %12.1f\n",
			r.Config, res.RuntimeNs/1000, res.AvgMissLatencyNs, res.BytesPerMiss())
	}

	snoop, dir := results[0].Result, results[1].Result
	fmt.Println()
	fmt.Printf("snooping speedup over directory: %.2fx (paper: up to ~2x on Apache/OLTP)\n",
		dir.RuntimeNs/snoop.RuntimeNs)
	for _, r := range results[2:] {
		perf := 100 * snoop.RuntimeNs / r.Result.RuntimeNs
		traffic := 100 * r.Result.BytesPerMiss() / snoop.BytesPerMiss()
		fmt.Printf("%s: %.0f%% of snooping performance at %.0f%% of its traffic\n",
			r.Config, perf, traffic)
	}
}
