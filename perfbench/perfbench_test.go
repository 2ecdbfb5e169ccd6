package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsMatchReference runs each workload briefly at a fixed seed
// and requires every output to match the reference model.
func TestWorkloadsMatchReference(t *testing.T) {
	for _, name := range []string{"oltp", "bulk", "ledger"} {
		t.Run(name, func(t *testing.T) {
			rep, err := runEndToEnd(specs[name], 7, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || len(rep.problems) != 0 {
				t.Fatalf("%d failed: %v", rep.failed, rep.problems)
			}
			if _, err := rep.result(endToEnd); err != nil {
				t.Fatal(err)
			}
		})
	}
	// One system for a second leaves room for a few crash, repair,
	// redundant cycles.
	t.Run("failover", func(t *testing.T) {
		s, err := boot(specs["failover"], 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		w, err := s.measure(100*time.Millisecond, time.Second, nil)
		if err != nil {
			s.sys.Stop()
			t.Fatal(err)
		}
		v := s.finish(w)
		if len(w.crashes) == 0 || v.failed != 0 || len(v.problems) != 0 {
			t.Fatalf("%d crashes, %d failed: %v", len(w.crashes), v.failed, v.problems)
		}
	})
}

// TestTracedRunEmitsEveryMetric checks that the traced run measures every
// per-layer metric, joins its transactions and loses no event.
func TestTracedRunEmitsEveryMetric(t *testing.T) {
	rep, err := runTraced(specs["oltp"], 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("%d failed: %v", rep.failed, rep.problems)
	}
	if _, err := rep.result(perLayer); err != nil {
		t.Fatal(err)
	}
	v := rep.values
	if v["trace.txns"] == 0 || v["trace.dropped"] != 0 {
		t.Fatalf("joined %v transactions, dropped %v events", v["trace.txns"], v["trace.dropped"])
	}
	if v["bus.deliveries_per_transmission"] != 3 {
		t.Fatalf("deliveries per data transmission %v, want 3", v["bus.deliveries_per_transmission"])
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the emitted names and units in
// step with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []entry) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: emitted %s (%s), BENCHMARK.json has %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
}

// TestCheckAuditDetectsDivergence feeds the checker audit replies that a
// correct server would not send.
func TestCheckAuditDetectsDivergence(t *testing.T) {
	s := &session{spec: specs["oltp"], seed: 3, rec: newRecorder(false)}
	s.rec.clients[0].completed.Store(40)
	s.rec.clients[1].completed.Store(25)
	audit := func(serial int64, bal []int64) []byte {
		out := make([]byte, 17+8*len(bal))
		out[0] = opTotal
		var total int64
		for i, b := range bal {
			total += b
			binary.LittleEndian.PutUint64(out[17+8*i:], uint64(b))
		}
		binary.LittleEndian.PutUint64(out[1:], uint64(total))
		binary.LittleEndian.PutUint64(out[9:], uint64(serial))
		return out
	}
	want := reference(s.seed, s.spec.accounts, s.completedBy())

	var ok verdict
	s.checkAudit(&ok, audit(66, want), 65)
	if ok.failed != 0 {
		t.Fatalf("matching audit rejected: %v", ok.problems)
	}

	var replayed verdict
	s.checkAudit(&replayed, audit(67, want), 65)
	if replayed.failed == 0 {
		t.Fatal("a serial one past the transactions (a transfer applied twice) passed")
	}

	moved := append([]int64(nil), want...)
	moved[0] += xferAmount
	moved[1] -= xferAmount
	var diverged verdict
	s.checkAudit(&diverged, audit(66, moved), 65)
	if diverged.failed != 2 {
		t.Fatalf("two diverged balances counted as %d failures: %v", diverged.failed, diverged.problems)
	}
}
