package main

import (
	"fmt"
	"runtime"
)

// clientThreads is the client threads of every timed phase. With two,
// the client and server goroutines saturate a 2-CPU machine and
// throughput and median latency split into two modes from run to run
// (README.md). On one thread no transaction conflicts either.
const clientThreads = 1

// The workloads. Sizes and mixes are pinned here rather than read
// from workloads/, so the benchmark's inputs change only with this
// file.
var specs = []spec{
	{
		// The paper's Closed Economy Workload as shipped in
		// workloads/closed_economy_workload, through client-coordinated
		// transactions.
		name: "cew-txn",
		txn:  true,
		props: map[string]string{
			"workload":                  "closedeconomy",
			"recordcount":               "10000",
			"totalcash":                 "100000000",
			"readproportion":            "0.9",
			"readmodifywriteproportion": "0.1",
			"requestdistribution":       "zipfian",
			"fieldcount":                "1",
			"fieldlength":               "100",
			"writeallfields":            "true",
			"readallfields":             "true",
		},
		roundOps: 5000,
	},
	{
		// YCSB core workload A over rawhttp on negotiated frames.
		name: "ycsb-a",
		props: map[string]string{
			"workload":            "core",
			"recordcount":         "20000",
			"fieldcount":          "10",
			"fieldlength":         "100",
			"readproportion":      "0.5",
			"updateproportion":    "0.5",
			"scanproportion":      "0",
			"insertproportion":    "0",
			"requestdistribution": "zipfian",
			"dataintegrity":       "true",
		},
		roundOps: 10000,
	},
	{
		// YCSB core workload E over rawhttp, scans streamed on the
		// credit-gated frames. Scans of 1-10 records, not E's 1-100:
		// long scans move ~50 KB a call and their figures spread two
		// to three times as wide from run to run (README.md).
		name: "ycsb-e",
		props: map[string]string{
			"workload":            "core",
			"recordcount":         "20000",
			"fieldcount":          "10",
			"fieldlength":         "100",
			"readproportion":      "0",
			"updateproportion":    "0",
			"scanproportion":      "0.95",
			"insertproportion":    "0.05",
			"maxscanlength":       "10",
			"requestdistribution": "zipfian",
			"dataintegrity":       "true",
		},
		roundOps: 5000,
	},
}

func findSpec(name string) (spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// loadThreads is the client threads of the load phase: one per CPU,
// at most four.
func loadThreads() int { return min(runtime.NumCPU(), 4) }
