package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// spec is one workload. Every workload is closed loop with two clients,
// each waiting for its reply before sending the next request.
type spec struct {
	name string
	// accounts > 0 selects the bank protocol over that many accounts;
	// 0 selects echo with size-byte payloads.
	accounts int
	size     int
	// failover repeatedly crashes the cluster hosting the server primary,
	// then repairs it and waits for full redundancy.
	failover bool
}

var specs = map[string]spec{
	"oltp":     {name: "oltp", accounts: 8},
	"bulk":     {name: "bulk", size: 16 << 10},
	"ledger":   {name: "ledger", accounts: 4096},
	"failover": {name: "failover", accounts: 8, failover: true},
}

// Placement: the server runs primary on 2 with its backup on 0, the two
// clients on 1 and 3, each backed up on the other, so every data message
// reaches three distinct clusters (§5.1). The system servers live on 0
// and 1, so a failover crash of 0 also fails the page, file and process
// servers over.
const (
	clusters      = 4
	serverCluster = types.ClusterID(2)
	serverBackup  = types.ClusterID(0)
	syncReads     = 8

	exitTimeout      = 10 * time.Second
	redundantTimeout = 10 * time.Second

	// Failover gaps between a return to redundancy and the next crash.
	crashGapMin    = 150 * time.Millisecond
	crashGapSpread = 200 * time.Millisecond
)

var clientPlace = [2][2]types.ClusterID{{1, 3}, {3, 1}}

// session is one booted system running one workload.
type session struct {
	spec    spec
	seed    uint64
	sys     *core.System
	rec     *recorder
	server  types.PID
	clients [2]types.PID

	setup  time.Duration // core.New until both clients connected
	newDur time.Duration // core.New alone
	spawns []float64     // µs per Spawn
}

// boot starts a system, spawns the server and both clients, and returns
// once both clients have connected. logLimit > 0 turns the EventLog and
// the guest spans on.
func boot(sp spec, seed uint64, logLimit int) (*session, error) {
	s := &session{spec: sp, seed: seed, rec: newRecorder(logLimit > 0)}
	reg := guest.NewRegistry()
	register(reg, s.rec)

	start := time.Now()
	sys, err := core.New(core.Options{Clusters: clusters, SyncTicks: 1 << 40, EventLogLimit: logLimit}, reg)
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	s.newDur = time.Since(start)
	s.sys = sys
	spawn := func(program string, args []byte, primary, backup types.ClusterID) (types.PID, error) {
		t := time.Now()
		pid, err := sys.Spawn(program, args, core.SpawnConfig{Cluster: primary, BackupCluster: backup, SyncReads: syncReads})
		s.spawns = append(s.spawns, us(int64(time.Since(t))))
		if err != nil {
			return pid, fmt.Errorf("spawn %s: %w", program, err)
		}
		return pid, nil
	}
	if s.server, err = spawn("pb-server", []byte(strconv.Itoa(sp.accounts)), serverCluster, serverBackup); err != nil {
		sys.Stop()
		return nil, err
	}
	for i := range s.clients {
		args := clientArgs{index: i, seed: seed, accounts: sp.accounts, size: sp.size}
		if s.clients[i], err = spawn("pb-client", args.encode(), clientPlace[i][0], clientPlace[i][1]); err != nil {
			sys.Stop()
			return nil, err
		}
	}
	select {
	case <-s.rec.connected:
	case <-time.After(exitTimeout):
		sys.Stop()
		return nil, fmt.Errorf("clients %v not connected after %v: %v", s.clients, exitTimeout, sys.GuestErrors())
	}
	var last int64
	for i := range s.rec.clients {
		last = max(last, s.rec.clients[i].connectedAt.Load())
	}
	s.setup = time.Duration(last - start.UnixNano())
	return s, nil
}

// window is what one measured interval observed.
type window struct {
	from, to int64
	txns     int64
	// slices splits the interval into one-second parts; the end-to-end
	// metrics are medians over them, so a short burst of interference
	// from outside the benchmark moves one slice, not the result.
	slices   []slice
	delta    trace.Snapshot
	after    trace.Snapshot
	crashes  []crashRecord
	crashErr error
}

type slice struct {
	txnPerS  float64
	p50, p99 float64 // µs, client Write call to reply at the client handler
	heapMiB  float64
	samples  int
}

const sliceLen = time.Second

func (w *window) seconds() float64 { return float64(w.to-w.from) / 1e9 }

func (w *window) txnPerS() float64 { return float64(w.txns) / w.seconds() }

// median returns the median over slices of one field.
func (w *window) median(field func(slice) float64) float64 {
	xs := make([]float64, len(w.slices))
	for i, sl := range w.slices {
		xs[i] = field(sl)
	}
	return quantile(xs, 0.5)
}

// measure starts the clients, warms up, then measures until d has passed
// or full reports true (polled every 10ms). The failover crash loop runs
// for the measured interval only.
func (s *session) measure(warmup, d time.Duration, full func() bool) (*window, error) {
	for _, pid := range s.clients {
		if err := s.sys.Signal(pid, types.SigUser); err != nil {
			return nil, fmt.Errorf("start %s: %w", pid, err)
		}
	}
	time.Sleep(warmup)
	runtime.GC()

	w := &window{}
	heap := startHeapSampler(5 * time.Millisecond)
	before := s.sys.Metrics().Snapshot()
	count0 := s.rec.completed()
	s.rec.window.Store(true)
	w.from = now()

	stop := make(chan struct{})
	done := make(chan error, 1)
	if s.spec.failover {
		go func() { done <- s.crashLoop(stop) }()
	} else {
		done <- nil
	}
	start := time.Now()
	deadline := start.Add(d)
	cutAt, cutCount, cutTime := start.Add(min(sliceLen, d)), count0, w.from
	var lat []float64
	for {
		t := time.Now()
		ended := !t.Before(deadline) || (full != nil && full())
		if !t.Before(cutAt) || ended {
			n, tn := s.rec.completed(), t.UnixNano()
			lat = s.rec.takeLatencies(lat[:0])
			w.slices = append(w.slices, slice{
				txnPerS: float64(n-cutCount) / (float64(tn-cutTime) / 1e9),
				p50:     quantile(lat, 0.5),
				p99:     quantile(lat, 0.99),
				heapMiB: heap.take(),
				samples: len(lat),
			})
			cutAt, cutCount, cutTime = cutAt.Add(sliceLen), n, tn
		}
		if ended {
			break
		}
		time.Sleep(min(10*time.Millisecond, time.Until(cutAt), time.Until(deadline)))
	}

	w.to = now()
	w.txns = s.rec.completed() - count0
	s.rec.window.Store(false)
	w.after = s.sys.Metrics().Snapshot()
	w.delta = w.after.Delta(before)
	heap.stopSampling()
	close(stop)
	w.crashErr = <-done

	s.rec.crashMu.Lock()
	w.crashes = append(w.crashes, s.rec.crashes...)
	s.rec.crashMu.Unlock()
	return w, nil
}

// crashLoop crashes the server primary's cluster, repairs it and waits for
// full redundancy, over and over, with seeded gaps, until stop is closed.
func (s *session) crashLoop(stop <-chan struct{}) error {
	rng := workload.NewRand(s.seed ^ 0xFA11_0FE5)
	for {
		gap := crashGapMin + time.Duration(rng.Intn(int(crashGapSpread)))
		select {
		case <-stop:
			return nil
		case <-time.After(gap):
		}
		loc, ok := s.sys.Directory().Proc(s.server)
		if !ok {
			return fmt.Errorf("server %s missing from the directory", s.server)
		}
		target := loc.Cluster

		s.rec.crashMu.Lock()
		t0 := time.Now()
		s.rec.crashes = append(s.rec.crashes, crashRecord{at: t0.UnixNano()})
		s.rec.crashMu.Unlock()
		if err := s.sys.Crash(target); err != nil {
			return fmt.Errorf("crash %v: %w", target, err)
		}
		t1 := time.Now()
		if err := s.sys.Repair(target); err != nil {
			return fmt.Errorf("repair %v: %w", target, err)
		}
		t2 := time.Now()
		if err := s.sys.WaitRedundant(redundantTimeout); err != nil {
			return err
		}
		t3 := time.Now()
		s.rec.crashMu.Lock()
		cr := &s.rec.crashes[len(s.rec.crashes)-1]
		cr.crash, cr.repair, cr.wait = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
		cr.redundant = t3.Sub(t0)
		s.rec.crashMu.Unlock()
	}
}

// verdict is the outcome of checking a session's outputs against the
// reference.
type verdict struct {
	attempted, failed int64
	problems          []string
}

func (v *verdict) add(failed int64, format string, args ...any) {
	v.failed += failed
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// finish stops the clients after their outstanding replies, reads the
// server's state through a checker guest, checks everything against the
// reference model, and stops the system.
func (s *session) finish(w *window) verdict {
	defer s.sys.Stop()
	var v verdict
	if w.crashErr != nil {
		v.add(1, "failover: %v", w.crashErr)
	}
	for _, pid := range s.clients {
		if err := s.sys.Signal(pid, types.SigUser); err != nil {
			v.add(1, "stop %s: %v", pid, err)
		}
	}
	for _, pid := range s.clients {
		if err := s.sys.WaitExit(pid, exitTimeout); err != nil {
			v.add(1, "client %s did not finish: %v", pid, err)
		}
	}
	// Every transaction of the run is checked, the window's and the rest.
	for i := range s.rec.clients {
		c := &s.rec.clients[i]
		v.attempted += c.completed.Load()
		c.mu.Lock()
		if c.bad > 0 {
			v.add(c.bad, "%s: %s (%d bad replies)", s.clients[i], c.failure, c.bad)
		}
		c.mu.Unlock()
	}

	pid, err := s.sys.Spawn("pb-checker", nil, core.SpawnConfig{Cluster: 1, BackupCluster: 3})
	if err == nil {
		err = s.sys.WaitExit(pid, exitTimeout)
	}
	if err != nil {
		v.add(1, "checker %s: %v", pid, err)
	} else {
		s.checkAudit(&v, s.rec.auditReply(), v.attempted)
	}

	if !s.spec.failover {
		end := s.sys.Metrics().Snapshot()
		for _, name := range robustness {
			if n := end[name]; n != 0 {
				v.add(int64(n), "fault-free run counted %s=%d", name, n)
			}
		}
	}
	for _, e := range s.sys.GuestErrors() {
		v.add(1, "guest error: %s", e)
	}
	return v
}

// robustness counters read zero unless a fault was injected.
var robustness = []string{
	"bus_retries", "bus_fault_drops", "partition_drops", "dup_deliveries_suppressed",
	"corrupt_frame_drops", "fenced_rejects", "step_downs",
}

// checkAudit compares the server's audit reply with the reference: a pure
// replay of each client's seeded plan for as many transfers as it
// completed. The serial must equal the transactions plus the audit itself,
// which shows each request was applied exactly once.
func (s *session) checkAudit(v *verdict, reply []byte, txns int64) {
	accounts := s.spec.accounts
	if len(reply) != 17+8*accounts || reply[0] != opTotal {
		v.add(1, "audit reply malformed: %d bytes", len(reply))
		return
	}
	total := int64(binary.LittleEndian.Uint64(reply[1:]))
	serial := int64(binary.LittleEndian.Uint64(reply[9:]))
	if serial != txns+1 {
		v.add(max(1, abs(serial-txns-1)), "server %s serial %d, want %d (transactions %d + audit)", s.server, serial, txns+1, txns)
	}
	if accounts == 0 {
		return
	}
	want := reference(s.seed, accounts, s.completedBy())
	var sum int64
	mismatched := 0
	first := -1
	for i := 0; i < accounts; i++ {
		got := int64(binary.LittleEndian.Uint64(reply[17+8*i:]))
		sum += got
		if got != want[i] {
			mismatched++
			if first < 0 {
				first = i
			}
		}
	}
	if mismatched > 0 {
		got := int64(binary.LittleEndian.Uint64(reply[17+8*first:]))
		v.add(int64(mismatched), "server %s: %d balances diverge from the reference; first is account %d: %d, want %d",
			s.server, mismatched, first, got, want[first])
	}
	if sum != total || total != int64(accounts)*initBalance {
		v.add(1, "server %s audit total %d (sum %d), want %d", s.server, total, sum, int64(accounts)*initBalance)
	}
}

func (s *session) completedBy() []int64 {
	out := make([]int64, len(s.rec.clients))
	for i := range s.rec.clients {
		out[i] = s.rec.clients[i].completed.Load()
	}
	return out
}

// reference replays the clients' plans over fresh balances.
func reference(seed uint64, accounts int, completed []int64) []int64 {
	bal := make([]int64, accounts)
	for i := range bal {
		bal[i] = initBalance
	}
	for c, n := range completed {
		p := plan(seed, accounts, c)
		for i := 0; i < int(n); i++ {
			from, to, amount := p.Txn(i)
			bal[from] -= int64(amount)
			bal[to] += int64(amount)
		}
	}
	return bal
}

// hashOf rebuilds the payload of a traced Write and hashes it as the bus
// does, so the Write pairs with its EvTransmit.
func (s *session) hashOf(sp span) uint64 {
	client, seq := int(sp.id>>56), sp.id&(1<<56-1)
	var b []byte
	switch sp.op {
	case opXfer:
		from, to, amount := plan(s.seed, s.spec.accounts, client).Txn(int(seq))
		b = xferReq(client, seq, from, to, amount)
	case opOK:
		req := make([]byte, hdrLen)
		putHeader(req, opXfer, client, seq)
		b = okReply(req, int64(sp.arg))
	case opEcho:
		b = make([]byte, sp.n)
		echoPayload(b, s.seed, client, seq)
	}
	return trace.HashPayload(b)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
