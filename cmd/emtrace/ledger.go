package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"time"

	"emvia/internal/serve"
)

// runLedger implements `emtrace ledger`: a summary report over one or more
// emserve run-ledger files (JSONL, one LedgerRecord per terminal job).
func runLedger(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emtrace ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 12, "stages listed in the breakdown table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: emtrace ledger [-top N] ledger.jsonl [more.jsonl ...]")
		return 2
	}
	var recs []serve.LedgerRecord
	totalSkipped := 0
	for _, path := range fs.Args() {
		r, skipped, err := serve.ReadLedger(path)
		if err != nil {
			fmt.Fprintf(stderr, "emtrace: %v\n", err)
			return 1
		}
		recs = append(recs, r...)
		totalSkipped += skipped
	}
	if len(recs) == 0 {
		fmt.Fprintln(stderr, "emtrace: no ledger records found")
		return 1
	}
	ledgerReport(stdout, recs, totalSkipped, *top)
	return 0
}

// ledgerReport renders job outcomes, throughput, dedup rate, latency
// percentiles and the per-stage time breakdown.
func ledgerReport(w io.Writer, recs []serve.LedgerRecord, skipped, top int) {
	fmt.Fprintf(w, "=== run ledger: %d records", len(recs))
	if skipped > 0 {
		fmt.Fprintf(w, " (%d corrupt lines skipped)", skipped)
	}
	fmt.Fprintln(w, " ===")

	// Outcomes, dedup dispositions and trial totals.
	outcomes := make(map[string]int)
	dedup := 0
	var trialsDone, trialsTotal int64
	var queueWaits, walls []float64
	stageSum := make(map[string]float64)
	stageCnt := make(map[string]int)
	shardedJobs, totalShards, reissued := 0, 0, 0
	mergeTotal := 0.0
	var tMin, tMax time.Time
	for _, r := range recs {
		if r.Shards > 1 {
			shardedJobs++
			totalShards += r.Shards
			reissued += r.ShardsReissued
			mergeTotal += r.StageSeconds["merge"]
		}
		outcomes[r.Outcome]++
		if r.Dedup != "" {
			dedup++
		}
		trialsDone += r.TrialsDone
		trialsTotal += r.TrialsTotal
		// Dedup'd jobs never queued or ran; keep their zero wait/wall out of
		// the execution-latency percentiles.
		if r.Dedup == "" {
			queueWaits = append(queueWaits, r.StageSeconds["queue-wait"])
			walls = append(walls, r.WallSeconds)
		}
		for stage, sec := range r.StageSeconds {
			stageSum[stage] += sec
			stageCnt[stage]++
		}
		if ts, err := time.Parse(time.RFC3339Nano, r.Time); err == nil {
			if tMin.IsZero() || ts.Before(tMin) {
				tMin = ts
			}
			if ts.After(tMax) {
				tMax = ts
			}
		}
	}

	names := make([]string, 0, len(outcomes))
	for o := range outcomes {
		names = append(names, o)
	}
	sort.Strings(names)
	fmt.Fprint(w, "outcomes:")
	for _, o := range names {
		fmt.Fprintf(w, " %s=%d", o, outcomes[o])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "dedup rate: %d/%d (%.1f%%) answered from the result cache\n",
		dedup, len(recs), 100*float64(dedup)/float64(len(recs)))
	if trialsTotal > 0 {
		fmt.Fprintf(w, "trials: %d/%d completed\n", trialsDone, trialsTotal)
	}
	if shardedJobs > 0 {
		fmt.Fprintf(w, "sharding: %d jobs sharded, %.3g shards/job, %d reissued, merge %.4gs total\n",
			shardedJobs, float64(totalShards)/float64(shardedJobs), reissued, mergeTotal)
	}
	if !tMin.IsZero() && tMax.After(tMin) {
		span := tMax.Sub(tMin).Seconds()
		fmt.Fprintf(w, "throughput: %d jobs over %.3gs (%.3g jobs/s)\n",
			len(recs), span, float64(len(recs))/span)
	}

	if len(queueWaits) > 0 {
		sort.Float64s(queueWaits)
		sort.Float64s(walls)
		fmt.Fprintf(w, "  %-16s %10s %10s %10s %10s\n", "latency", "p50", "p90", "p99", "max")
		fmt.Fprintf(w, "  %-16s %9.3gs %9.3gs %9.3gs %9.3gs\n", "queue-wait",
			quantile(queueWaits, 0.5), quantile(queueWaits, 0.9), quantile(queueWaits, 0.99), queueWaits[len(queueWaits)-1])
		fmt.Fprintf(w, "  %-16s %9.3gs %9.3gs %9.3gs %9.3gs\n", "wall-clock",
			quantile(walls, 0.5), quantile(walls, 0.9), quantile(walls, 0.99), walls[len(walls)-1])
	}

	if len(stageSum) > 0 {
		total := 0.0
		for _, s := range stageSum {
			total += s
		}
		stages := make([]string, 0, len(stageSum))
		for s := range stageSum {
			stages = append(stages, s)
		}
		sort.Slice(stages, func(i, j int) bool {
			if stageSum[stages[i]] != stageSum[stages[j]] {
				return stageSum[stages[i]] > stageSum[stages[j]]
			}
			return stages[i] < stages[j]
		})
		if len(stages) > top {
			stages = stages[:top]
		}
		fmt.Fprintln(w, "stage breakdown (total time across jobs):")
		fmt.Fprintf(w, "  %-16s %8s %12s %8s\n", "stage", "jobs", "total", "share")
		for _, s := range stages {
			share := 0.0
			if total > 0 {
				share = 100 * stageSum[s] / total
			}
			fmt.Fprintf(w, "  %-16s %8d %11.4gs %7.1f%%\n", s, stageCnt[s], stageSum[s], share)
		}
	}
}
