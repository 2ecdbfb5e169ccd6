// Command perfbench is the repository benchmark. It boots core.System in
// process, drives one of four closed-loop workloads through its own guest
// programs, checks every run's outputs against a pure-Go reference, and
// prints one JSON line of metrics.
//
//	perfbench --workload oltp|bulk|ledger|failover --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// reports the per-layer metrics: an untraced interval (counter ratios,
// failover timings, the untraced rate) followed by a traced one on a fresh
// system, whose EventLog and guest-API spans are joined per transaction.
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; BENCHMARK.json lists the same
// names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"txn_p50_us", "us"},
	{"txn_p99_us", "us"},
	{"heap_peak_mib", "MiB"},
}

// perLayer are the traced run's metrics. A metric of a layer the workload
// does not exercise (recovery outside failover, say) reads 0.
var perLayer = []metricDef{
	{"txn_fail_ratio", "ratio"},
	{"stall_ms", "ms"},
	{"redundant_ms", "ms"},
	{"trace.txn_per_s", "1/s"},
	{"trace.untraced_txn_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.txns", "count"},
	{"trace.events", "count"},
	{"trace.dropped", "count"},
	{"waterfall.latency_p50_us", "us"},
	{"waterfall.handoff_share", "ratio"},
	{"self.kernel.handoff_us", "us"},
	{"self.kernel.write_us", "us"},
	{"self.kernel.sync_us", "us"},
	{"self.memory_us", "us"},
	{"self.bus_us", "us"},
	{"self.guest_us", "us"},
	{"kernel.write_p50_us", "us"},
	{"kernel.write_p99_us", "us"},
	{"kernel.txq_p50_us", "us"},
	{"bus.transit_p50_us", "us"},
	{"kernel.dispatch_p50_us", "us"},
	{"kernel.wake_p50_us", "us"},
	{"kernel.service_p50_us", "us"},
	{"kernel.service_sync_p50_us", "us"},
	{"kernel.service_sync_share", "ratio"},
	{"kernel.sync_p50_us", "us"},
	{"memory.flush_p50_us", "us"},
	{"bus.batch_mean", "count"},
	{"bus.transmissions_per_txn", "count"},
	{"bus.deliveries_per_transmission", "count"},
	{"bus.bytes_per_txn", "B"},
	{"bus.inbox_peak", "count"},
	{"routing.saves_per_txn", "count"},
	{"routing.counts_per_txn", "count"},
	{"sync.per_txn", "count"},
	{"memory.pages_per_sync", "count"},
	{"pager.bytes_per_txn", "B"},
	{"sync.discarded_per_sync", "count"},
	{"sync.apply_lag_p50_us", "us"},
	{"recovery.crashes", "count"},
	{"recovery.promotion_p50_us", "us"},
	{"recovery.promotion_counter_us", "us"},
	{"recovery.rollforward_p50_us", "us"},
	{"recovery.replayed_per_crash", "count"},
	{"recovery.suppressed_per_crash", "count"},
	{"recovery.pages_fetched_per_crash", "count"},
	{"core.crash_p50_us", "us"},
	{"core.repair_p50_ms", "ms"},
	{"core.wait_redundant_p50_ms", "ms"},
	{"repair.resilver_p50_ms", "ms"},
	{"repair.reback_p50_ms", "ms"},
	{"core.new_ms", "ms"},
	{"core.spawn_p50_us", "us"},
	{"fileserver.open_p50_us", "us"},
	{"guest.call_ms", "ms"},
	{"bus.retries", "count"},
	{"bus.fault_drops", "count"},
	{"bus.partition_drops", "count"},
	{"bus.dup_suppressed", "count"},
	{"bus.corrupt_drops", "count"},
	{"kernel.fenced_rejects", "count"},
	{"kernel.step_downs", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what one invocation measured, before it is shaped into the
// result line.
type report struct {
	verdict
	values map[string]float64
	notes  []string
}

func (r *report) merge(v verdict) {
	r.attempted += v.attempted
	r.failed += v.failed
	r.problems = append(r.problems, v.problems...)
}

func main() {
	name := flag.String("workload", "", "oltp, bulk, ledger or failover")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	sp, ok := specs[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	defs := endToEnd
	if *traced == 1 {
		rep, err = runTraced(sp, *seed, d)
		defs = perLayer
	} else {
		rep, err = runEndToEnd(sp, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := rep.result(defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "FAIL:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func (r *report) result(defs []metricDef) (result, error) {
	res := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return res, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no transaction completed")
	}
	return res, nil
}

// setupTrials is how many systems one run boots to time set-up. Set-up
// takes about a millisecond, so one boot is at the mercy of the scheduler;
// the median of many is not.
const setupTrials = 15

// systemsPerRun is how many of those systems run the workload, each for
// an equal share of the measured time. A system's backlogs and heap settle
// differently from one boot to the next, and the garbage collector's pace
// follows them; the median over several systems does not.
const systemsPerRun = 10

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(sp spec, seed uint64, d time.Duration) (*report, error) {
	rep := &report{}
	var setups []float64
	var all window
	for i := 0; i < setupTrials; i++ {
		runtime.GC() // each boot starts from the same heap, not the last one's garbage
		s, err := boot(sp, seed, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i < setupTrials-systemsPerRun {
			s.sys.Stop()
			continue
		}
		share := d / systemsPerRun
		w, err := s.measure(warmupFor(share), share, nil)
		if err != nil {
			s.sys.Stop()
			return nil, err
		}
		rep.merge(s.finish(w))
		all.slices = append(all.slices, w.slices...)
		rep.notes = append(rep.notes, fmt.Sprintf("%s seed %d system %d: %d txns in %.2fs, %d crashes",
			sp.name, seed, i, w.txns, w.seconds(), len(w.crashes)))
		for j, sl := range w.slices {
			rep.notes = append(rep.notes, fmt.Sprintf("  slice %2d: %8.0f txn/s  p50 %7.1fus  p99 %8.1fus  live heap %6.1f MiB  (%d samples)",
				j, sl.txnPerS, sl.p50, sl.p99, sl.heapMiB, sl.samples))
		}
	}
	rep.values = map[string]float64{
		"setup_s":       quantile(setups, 0.5),
		"txn_per_s":     all.median(func(s slice) float64 { return s.txnPerS }),
		"txn_p50_us":    all.median(func(s slice) float64 { return s.p50 }),
		"txn_p99_us":    all.median(func(s slice) float64 { return s.p99 }),
		"heap_peak_mib": all.median(func(s slice) float64 { return s.heapMiB }),
	}
	return rep, nil
}

// warmupFor lets goroutines, pools and the heap settle before timing.
func warmupFor(d time.Duration) time.Duration { return min(time.Second, d/4) }

// eventLogLimit bounds the traced interval: it ends before the ring fills,
// so no event of the interval is dropped.
const eventLogLimit = 1 << 19

// runTraced measures the per-layer metrics: first an untraced interval on
// one system, then a traced one on a fresh system.
func runTraced(sp spec, seed uint64, d time.Duration) (*report, error) {
	rep := &report{values: make(map[string]float64)}
	vals := rep.values

	s, err := boot(sp, seed, 0)
	if err != nil {
		return nil, err
	}
	w, err := s.measure(warmupFor(d/2), d/2, nil)
	if err != nil {
		s.sys.Stop()
		return nil, err
	}
	v := s.finish(w)
	rep.merge(v)
	untraced := w.median(func(s slice) float64 { return s.txnPerS })
	vals["trace.untraced_txn_per_s"] = untraced
	counterRatios(vals, w)
	failoverTimes(vals, w)

	t, err := boot(sp, seed, eventLogLimit)
	if err != nil {
		return nil, err
	}
	log := t.sys.EventLog()
	tw, err := t.measure(warmupFor(d/2)/4, d/2, func() bool { return log.Len() >= eventLogLimit*4/5 })
	if err != nil {
		t.sys.Stop()
		return nil, err
	}
	tv := t.finish(tw)
	rep.merge(tv)
	events := log.Events()
	vals["trace.events"] = float64(len(events))
	vals["trace.dropped"] = float64(log.Dropped())
	vals["trace.txn_per_s"] = tw.txnPerS()
	vals["trace.overhead_pct"] = 100 * (untraced - tw.txnPerS()) / untraced
	vals["core.new_ms"] = ms(int64(t.newDur))
	vals["core.spawn_p50_us"] = quantile(t.spawns, 0.5)

	spans, droppedSpans := t.rec.spans.all()
	wf := buildWaterfall(indexEvents(events), spans, t.hashOf, t.server, tw.from, tw.to)
	waterfallValues(vals, wf)
	// The program's own promotion time, over the same interval as the
	// events, cross-checks recovery.promotion_p50_us.
	vals["recovery.promotion_counter_us"] = ratio(tw.delta["recovery_nanos"], tw.delta["recoveries"]) / 1e3
	if !sp.failover && wf.dataRx != 3*wf.dataTx {
		rep.add(1, "data messages reached %d clusters in %d transmissions, want 3 each", wf.dataRx, wf.dataTx)
	}
	vals["txn_fail_ratio"] = ratio(uint64(rep.failed), uint64(rep.attempted))
	if droppedSpans > 0 || log.Dropped() > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("traced interval lost %d spans and %d events", droppedSpans, log.Dropped()))
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%s seed %d: untraced %d txns in %.2fs; traced %d txns in %.2fs (%d joined, %d unjoined), %d events",
		sp.name, seed, w.txns, w.seconds(), tw.txns, tw.seconds(), wf.txns, wf.missing, len(events)))
	rep.notes = append(rep.notes, predictions(sp, vals, wf)...)
	return rep, nil
}

// counterRatios turns the untraced interval's counter deltas into ratios
// with their base: per transaction, per sync and per crash.
func counterRatios(vals map[string]float64, w *window) {
	d := w.delta
	txns := uint64(w.txns)
	vals["bus.batch_mean"] = ratio(d["bus_batched_messages"], d["bus_batches"])
	vals["bus.transmissions_per_txn"] = ratio(d["bus_transmissions"], txns)
	vals["bus.bytes_per_txn"] = ratio(d["bus_bytes"], txns)
	vals["bus.inbox_peak"] = float64(w.after["inbox_peak"])
	vals["routing.saves_per_txn"] = ratio(d["backup_saves"], txns)
	vals["routing.counts_per_txn"] = ratio(d["sender_backup_counts"], txns)
	vals["sync.per_txn"] = ratio(d["syncs"], txns)
	vals["memory.pages_per_sync"] = ratio(d["pages_out"], d["syncs"])
	vals["pager.bytes_per_txn"] = ratio(d["page_bytes"], txns)
	vals["sync.discarded_per_sync"] = ratio(d["messages_discarded"], d["syncs"])
	vals["recovery.crashes"] = float64(d["crashes"])
	vals["recovery.replayed_per_crash"] = ratio(d["replayed_messages"], d["crashes"])
	vals["recovery.suppressed_per_crash"] = ratio(d["suppressed_sends"], d["crashes"])
	vals["recovery.pages_fetched_per_crash"] = ratio(d["pages_fetched"], d["crashes"])
	for name, counter := range map[string]string{
		"bus.retries":           "bus_retries",
		"bus.fault_drops":       "bus_fault_drops",
		"bus.partition_drops":   "partition_drops",
		"bus.dup_suppressed":    "dup_deliveries_suppressed",
		"bus.corrupt_drops":     "corrupt_frame_drops",
		"kernel.fenced_rejects": "fenced_rejects",
		"kernel.step_downs":     "step_downs",
	} {
		vals[name] = float64(d[counter])
	}
}

// failoverTimes reports the crash timings the benchmark takes around its
// own Crash, Repair and WaitRedundant calls and in the clients' handlers.
func failoverTimes(vals map[string]float64, w *window) {
	var stall, redundant, crash, repair, wait []float64
	for _, c := range w.crashes {
		if c.redundant == 0 {
			continue // the window closed mid-cycle
		}
		if c.done != 0 {
			stall = append(stall, ms(c.done-c.at))
		}
		redundant = append(redundant, ms(int64(c.redundant)))
		crash = append(crash, us(int64(c.crash)))
		repair = append(repair, ms(int64(c.repair)))
		wait = append(wait, ms(int64(c.wait)))
	}
	vals["stall_ms"] = quantile(stall, 0.5)
	vals["redundant_ms"] = quantile(redundant, 0.5)
	vals["core.crash_p50_us"] = quantile(crash, 0.5)
	vals["core.repair_p50_ms"] = quantile(repair, 0.5)
	vals["core.wait_redundant_p50_ms"] = quantile(wait, 0.5)
}

func waterfallValues(vals map[string]float64, wf *waterfall) {
	vals["trace.txns"] = float64(wf.txns)
	vals["waterfall.latency_p50_us"] = quantile(wf.latency, 0.5)
	vals["waterfall.handoff_share"] = wf.handoffShare
	for _, layer := range []string{"kernel.handoff", "kernel.write", "kernel.sync", "memory", "bus", "guest"} {
		vals["self."+layer+"_us"] = wf.self[layer]
	}
	vals["kernel.write_p50_us"] = quantile(wf.write, 0.5)
	vals["kernel.write_p99_us"] = quantile(wf.write, 0.99)
	vals["kernel.txq_p50_us"] = quantile(wf.txq, 0.5)
	vals["bus.transit_p50_us"] = quantile(wf.transit, 0.5)
	vals["kernel.dispatch_p50_us"] = quantile(wf.dispatch, 0.5)
	vals["kernel.wake_p50_us"] = quantile(wf.wake, 0.5)
	vals["kernel.service_p50_us"] = quantile(wf.service, 0.5)
	vals["kernel.service_sync_p50_us"] = quantile(wf.serviceSync, 0.5)
	vals["kernel.service_sync_share"] = float64(len(wf.serviceSync)) / float64(max(1, len(wf.service)+len(wf.serviceSync)))
	vals["kernel.sync_p50_us"] = quantile(wf.sync, 0.5)
	vals["memory.flush_p50_us"] = quantile(wf.flush, 0.5)
	vals["bus.deliveries_per_transmission"] = ratio(uint64(wf.dataRx), uint64(wf.dataTx))
	vals["sync.apply_lag_p50_us"] = quantile(wf.applyLag, 0.5)
	vals["recovery.promotion_p50_us"] = quantile(wf.promotion, 0.5)
	vals["recovery.rollforward_p50_us"] = quantile(wf.rollforward, 0.5)
	vals["repair.resilver_p50_ms"] = quantile(wf.resilver, 0.5)
	vals["repair.reback_p50_ms"] = quantile(wf.reback, 0.5)
	vals["fileserver.open_p50_us"] = quantile(wf.open, 0.5)
	vals["guest.call_ms"] = quantile(wf.call, 0.5) / 1e3
}

// predictions states, for the workload at hand, whether the prediction the
// benchmark was built to test held in this run.
func predictions(sp spec, vals map[string]float64, wf *waterfall) []string {
	held := func(ok bool) string {
		if ok {
			return "held"
		}
		return "FAILED"
	}
	var out []string
	switch {
	case sp.failover:
		stall := vals["stall_ms"] * 1e3
		part := vals["recovery.promotion_p50_us"] + vals["recovery.rollforward_p50_us"]
		out = append(out, fmt.Sprintf("prediction failover: promotion %.0fus + roll-forward %.0fus account for most of the %.0fus stall: %s",
			vals["recovery.promotion_p50_us"], vals["recovery.rollforward_p50_us"], stall, held(stall > 0 && part >= stall/2)))
	case sp.name == "oltp":
		var layers []string
		largest := true
		for _, k := range sortedKeys(wf.self) {
			layers = append(layers, fmt.Sprintf("%s %.1fus", k, wf.self[k]))
			largest = largest && wf.self[k] <= wf.self["kernel.handoff"]
		}
		out = append(out, fmt.Sprintf("prediction oltp: handoffs (txq+dispatch+wake) are the largest share of txn latency (%s; handoff p50 share %.2f): %s",
			strings.Join(layers, ", "), wf.handoffShare, held(largest)))
	case sp.name == "ledger":
		sync := vals["kernel.service_sync_p50_us"]
		dominant := sync > 0
		for _, k := range []string{"kernel.service_p50_us", "kernel.wake_p50_us", "kernel.txq_p50_us", "kernel.dispatch_p50_us", "bus.transit_p50_us", "kernel.write_p50_us"} {
			dominant = dominant && sync >= vals[k]
		}
		out = append(out, fmt.Sprintf("prediction ledger: service with a sync (p50 %.0fus over %.0f%% of requests) dominates the other stages (service %.0fus, wake %.0fus, sync %.0fus, flush %.0fus): %s",
			sync, 100*vals["kernel.service_sync_share"], vals["kernel.service_p50_us"], vals["kernel.wake_p50_us"], vals["kernel.sync_p50_us"], vals["memory.flush_p50_us"], held(dominant)))
	case sp.name == "bulk":
		out = append(out, fmt.Sprintf("prediction bulk: kernel.write p50 %.1fus and bus.transit p50 %.1fus grow with payload size; compare with the oltp traced run",
			vals["kernel.write_p50_us"], vals["bus.transit_p50_us"]))
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
