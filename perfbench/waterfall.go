package main

import (
	"encoding/binary"
	"sort"
	"sync"

	"auragen/internal/guest"
	"auragen/internal/trace"
	"auragen/internal/types"
)

// Spans are recorded around the benchmark guests' own calls into the
// guest API (and, for the server, around the FlushState the kernel calls
// back at a sync). Each carries the transaction it belongs to, so spans
// and the program's EventLog events join on one ID per transaction.

type spanKind uint8

const (
	spWrite spanKind = iota // guest Write
	spEntry                 // NextEvent returned a request or reply: handler entry (point)
	spSync                  // SyncPoint
	spFlush                 // FlushState inside a sync
	spOpen                  // Open
	spCall                  // Call
)

type spanRole uint8

const (
	roleClient spanRole = iota
	roleServer
	roleChecker
)

type span struct {
	kind       spanKind
	role       spanRole
	op         byte // first payload byte of a Write
	id         uint64
	arg        uint64 // serial of a bank reply
	n          int    // payload length of a Write
	start, end int64
}

const spanCap = 1 << 20

type spanBuf struct {
	role    spanRole
	mu      sync.Mutex
	spans   []span
	dropped int
}

func (b *spanBuf) add(s span) {
	s.role = b.role
	b.mu.Lock()
	if len(b.spans) < spanCap {
		b.spans = append(b.spans, s)
	} else {
		b.dropped++
	}
	b.mu.Unlock()
}

// spanStore hands one buffer to each guest instance, so recording never
// contends across processes.
type spanStore struct {
	mu   sync.Mutex
	bufs []*spanBuf
}

func newSpanStore() *spanStore { return &spanStore{} }

func (s *spanStore) buffer(role spanRole) *spanBuf {
	b := &spanBuf{role: role}
	s.mu.Lock()
	s.bufs = append(s.bufs, b)
	s.mu.Unlock()
	return b
}

func (s *spanStore) all() (out []span, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		dropped += b.dropped
		b.mu.Unlock()
	}
	return out, dropped
}

// tracedGuest wraps a guest so that the API it sees is spanned.
type tracedGuest struct {
	inner guest.Guest
	buf   *spanBuf
	last  uint64 // transaction of the latest handled input
}

func (g *tracedGuest) Run(p guest.API) error {
	return g.inner.Run(&tracedAPI{API: p, g: g})
}

func (g *tracedGuest) FlushState() {
	t := now()
	g.inner.FlushState()
	g.buf.add(span{kind: spFlush, id: g.last, start: t, end: now()})
}

func (g *tracedGuest) MarshalRegs() []byte             { return g.inner.MarshalRegs() }
func (g *tracedGuest) UnmarshalRegs(data []byte) error { return g.inner.UnmarshalRegs(data) }

type tracedAPI struct {
	guest.API
	g *tracedGuest
}

func (a *tracedAPI) Write(fd types.FD, data []byte) error {
	t := now()
	err := a.API.Write(fd, data)
	if id, ok := payloadTxn(data); ok {
		s := span{kind: spWrite, op: data[0], id: id, n: len(data), start: t, end: now()}
		if data[0] == opOK {
			s.arg = binary.LittleEndian.Uint64(data[hdrLen:])
		}
		a.g.buf.add(s)
	}
	return err
}

func (a *tracedAPI) NextEvent() (guest.Event, error) {
	ev, err := a.API.NextEvent()
	if err == nil && !ev.IsSignal {
		if id, ok := payloadTxn(ev.Data); ok {
			t := now()
			a.g.last = id
			a.g.buf.add(span{kind: spEntry, id: id, start: t, end: t})
		}
	}
	return ev, err
}

func (a *tracedAPI) SyncPoint() error {
	t := now()
	err := a.API.SyncPoint()
	a.g.buf.add(span{kind: spSync, id: a.g.last, start: t, end: now()})
	return err
}

func (a *tracedAPI) Open(name string) (types.FD, error) {
	t := now()
	fd, err := a.API.Open(name)
	a.g.buf.add(span{kind: spOpen, start: t, end: now()})
	return fd, err
}

func (a *tracedAPI) Call(fd types.FD, req []byte) ([]byte, error) {
	t := now()
	reply, err := a.API.Call(fd, req)
	a.g.buf.add(span{kind: spCall, start: t, end: now()})
	return reply, err
}

// msgInfo gathers the bus and kernel events of one transmission.
type msgInfo struct {
	tx, lastRx   int64
	rx           int
	rxAt         [4]int64 // by cluster, 0 if none
	deliver      int64
	deliverAt    types.ClusterID
	hasDelivered bool
}

// eventIndex is the EventLog of a traced window, indexed for joining.
type eventIndex struct {
	byHash   map[uint64][]uint64 // payload hash of a data transmission → MsgIDs
	msgs     map[uint64]*msgInfo
	syncs    map[[2]uint64]int64 // (pid, epoch) → EvSync time
	applies  map[[2]uint64]int64 // (pid, epoch) → EvSyncApply time
	crashes  []trace.Event
	recovers []trace.Event
	repairs  []trace.Event
	dataTx   []trace.Event // data transmissions in time order
}

func indexEvents(events []trace.Event) *eventIndex {
	ix := &eventIndex{
		byHash:  make(map[uint64][]uint64),
		msgs:    make(map[uint64]*msgInfo),
		syncs:   make(map[[2]uint64]int64),
		applies: make(map[[2]uint64]int64),
	}
	msg := func(id uint64) *msgInfo {
		m := ix.msgs[id]
		if m == nil {
			m = &msgInfo{}
			ix.msgs[id] = m
		}
		return m
	}
	for _, e := range events {
		switch e.Kind {
		case trace.EvTransmit:
			m := msg(e.MsgID)
			m.tx = e.When
			if e.MsgKind == types.KindData {
				ix.byHash[e.Arg] = append(ix.byHash[e.Arg], e.MsgID)
				ix.dataTx = append(ix.dataTx, e)
			}
		case trace.EvReceive:
			m := msg(e.MsgID)
			m.rx++
			if e.When > m.lastRx {
				m.lastRx = e.When
			}
			if c := int(e.Cluster); c >= 0 && c < len(m.rxAt) {
				m.rxAt[c] = e.When
			}
		case trace.EvDeliver:
			m := msg(e.MsgID)
			if !m.hasDelivered {
				m.hasDelivered, m.deliver, m.deliverAt = true, e.When, e.Cluster
			}
		case trace.EvSync:
			ix.syncs[[2]uint64{uint64(e.PID), e.Arg}] = e.When
		case trace.EvSyncApply:
			k := [2]uint64{uint64(e.PID), e.Arg}
			if _, ok := ix.applies[k]; !ok {
				ix.applies[k] = e.When
			}
		case trace.EvCrash:
			ix.crashes = append(ix.crashes, e)
		case trace.EvRecover:
			ix.recovers = append(ix.recovers, e)
		case trace.EvRepair:
			ix.repairs = append(ix.repairs, e)
		default:
			// Saves, counts, replays and the rest are covered by counters.
		}
	}
	return ix
}

// hop is one message's path from its Write returning to its reader's
// handler entry.
type hop struct {
	txq, transit, dispatch, wake int64
	ok                           bool
}

// hop follows the first transmission of the payload hashed to hash after
// its Write began at wrote. An echo reply carries the same bytes as its
// request, so the reply is the transmission that follows the server's Write.
func (ix *eventIndex) hop(hash uint64, wrote, written, entered int64) (hop, *msgInfo) {
	var m *msgInfo
	for _, id := range ix.byHash[hash] {
		if c := ix.msgs[id]; c.tx >= wrote {
			m = c
			break
		}
	}
	if m == nil || !m.hasDelivered {
		return hop{}, m
	}
	destRx := m.lastRx
	if c := int(m.deliverAt); c >= 0 && c < len(m.rxAt) && m.rxAt[c] != 0 {
		destRx = m.rxAt[c]
	}
	return hop{
		txq:      m.tx - written,
		transit:  m.lastRx - m.tx,
		dispatch: m.deliver - destRx,
		wake:     entered - m.deliver,
		ok:       true,
	}, m
}

// intervals is a sorted list of disjoint [start, end) spans of one
// goroutine, used to find how much of a wait they cover.
type intervals [][2]int64

func (iv intervals) overlap(a, b int64) int64 {
	i := sort.Search(len(iv), func(i int) bool { return iv[i][1] > a })
	var sum int64
	for ; i < len(iv) && iv[i][0] < b; i++ {
		sum += min(b, iv[i][1]) - max(a, iv[i][0])
	}
	return sum
}

// txnTrace is everything the traced phase learned about one transaction.
type txnTrace struct {
	clientWrite, serverWrite span
	serverEntry, clientDone  int64
}

// waterfall is the per-layer breakdown of a traced window.
type waterfall struct {
	txns                                int
	latency                             []float64
	write, txq, transit, dispatch, wake []float64
	service, serviceSync, sync, flush   []float64
	handoffShare                        float64
	// self is the mean time per transaction each layer spends on the
	// transaction's blocking path, by layer (kernel split by stage).
	self                             map[string]float64
	dataTx, dataRx, missing          int
	applyLag, promotion, rollforward []float64
	resilver, reback                 []float64
	open, call                       []float64
}

// buildWaterfall joins the traced phase's spans with its events. hashOf
// rebuilds the payload hash of a Write span; window bounds the
// transactions counted (by client Write start and reply arrival).
func buildWaterfall(ix *eventIndex, spans []span, hashOf func(span) uint64, serverPID types.PID, from, to int64) *waterfall {
	w := &waterfall{self: make(map[string]float64)}
	txns := make(map[uint64]*txnTrace)
	get := func(id uint64) *txnTrace {
		t := txns[id]
		if t == nil {
			t = &txnTrace{}
			txns[id] = t
		}
		return t
	}
	var syncIv, flushIv intervals
	// A promoted server replays the handlers its primary ran since the last
	// sync. Buffers come in creation order, so the first server span of a
	// transaction is the one that served it.
	for _, s := range spans {
		switch {
		case s.kind == spOpen && s.role == roleClient:
			w.open = append(w.open, us(s.end-s.start))
		case s.kind == spCall:
			w.call = append(w.call, us(s.end-s.start))
		case s.role == roleChecker:
		case s.kind == spWrite && s.role == roleClient:
			get(s.id).clientWrite = s
		case s.kind == spWrite && s.role == roleServer:
			if t := get(s.id); t.serverWrite.end == 0 {
				t.serverWrite = s
			}
		case s.kind == spEntry && s.role == roleServer:
			if t := get(s.id); t.serverEntry == 0 {
				t.serverEntry = s.start
			}
		case s.kind == spEntry && s.role == roleClient:
			get(s.id).clientDone = s.start
		case s.kind == spSync && s.role == roleServer:
			syncIv = append(syncIv, [2]int64{s.start, s.end})
		case s.kind == spFlush && s.role == roleServer:
			flushIv = append(flushIv, [2]int64{s.start, s.end})
		}
	}
	sort.Slice(syncIv, func(i, j int) bool { return syncIv[i][0] < syncIv[j][0] })
	sort.Slice(flushIv, func(i, j int) bool { return flushIv[i][0] < flushIv[j][0] })
	for _, iv := range flushIv {
		if iv[0] >= from && iv[1] <= to {
			w.flush = append(w.flush, us(iv[1]-iv[0]))
		}
	}
	for _, iv := range syncIv {
		if iv[0] >= from && iv[1] <= to && flushIv.overlap(iv[0], iv[1]) > 0 {
			w.sync = append(w.sync, us(iv[1]-iv[0]))
		}
	}

	// Syncs by the server, in time order, to classify each service interval.
	var serverSyncs []int64
	for k, t := range ix.syncs {
		if types.PID(k[0]) == serverPID {
			serverSyncs = append(serverSyncs, t)
		}
	}
	sort.Slice(serverSyncs, func(i, j int) bool { return serverSyncs[i] < serverSyncs[j] })
	syncBetween := func(a, b int64) bool {
		i := sort.Search(len(serverSyncs), func(i int) bool { return serverSyncs[i] >= a })
		return i < len(serverSyncs) && serverSyncs[i] <= b
	}

	var handoff []float64
	for _, t := range txns {
		cw, sw := t.clientWrite, t.serverWrite
		if cw.end == 0 || cw.start < from || t.clientDone == 0 || t.clientDone > to {
			continue
		}
		if sw.end == 0 || t.serverEntry == 0 {
			w.missing++
			continue
		}
		req, reqMsg := ix.hop(hashOf(cw), cw.start, cw.end, t.serverEntry)
		rep, repMsg := ix.hop(hashOf(sw), sw.start, sw.end, t.clientDone)
		if !req.ok || !rep.ok {
			w.missing++
			continue
		}
		w.txns++
		w.dataTx += 2
		w.dataRx += reqMsg.rx + repMsg.rx
		lat := t.clientDone - cw.start
		w.latency = append(w.latency, us(lat))
		w.write = append(w.write, us(cw.end-cw.start), us(sw.end-sw.start))
		w.txq = append(w.txq, us(req.txq), us(rep.txq))
		w.transit = append(w.transit, us(req.transit), us(rep.transit))
		w.dispatch = append(w.dispatch, us(req.dispatch), us(rep.dispatch))
		w.wake = append(w.wake, us(req.wake), us(rep.wake))
		svc := us(repMsg.tx - t.serverEntry)
		if syncBetween(t.serverEntry, repMsg.tx) {
			w.serviceSync = append(w.serviceSync, svc)
		} else {
			w.service = append(w.service, svc)
		}

		// The server's syncs block a request only while it waits to be
		// read; split that part of the wake out of the kernel's share.
		readable := t.serverEntry - req.wake
		flushed := flushIv.overlap(readable, t.serverEntry)
		synced := syncIv.overlap(readable, t.serverEntry) - flushed
		hand := req.txq + req.dispatch + req.wake + rep.txq + rep.dispatch + rep.wake - flushed - synced
		writes := (cw.end - cw.start) + (sw.end - sw.start)
		transit := req.transit + rep.transit
		handle := sw.start - t.serverEntry
		handoff = append(handoff, us(hand))
		w.self["kernel.handoff"] += us(hand)
		w.self["kernel.write"] += us(writes)
		w.self["kernel.sync"] += us(synced)
		w.self["memory"] += us(flushed)
		w.self["bus"] += us(transit)
		w.self["guest"] += us(handle)
	}
	if w.txns > 0 {
		for k := range w.self {
			w.self[k] /= float64(w.txns)
		}
		w.handoffShare = quantile(handoff, 0.5) / quantile(w.latency, 0.5)
	}

	for k, t := range ix.syncs {
		if a, ok := ix.applies[k]; ok && t >= from && t <= to {
			w.applyLag = append(w.applyLag, us(a-t))
		}
	}
	w.recovery(ix, serverPID)
	return w
}

// recovery measures each promotion of the server: EvCrash at the promoting
// kernel → EvRecover, then → the promoted server's first reply on the bus.
func (w *waterfall) recovery(ix *eventIndex, serverPID types.PID) {
	for _, r := range ix.recovers {
		if r.PID != serverPID {
			continue
		}
		var crashAt int64
		for _, c := range ix.crashes {
			if c.Cluster == r.Cluster && c.When <= r.When && c.When > crashAt {
				crashAt = c.When
			}
		}
		if crashAt == 0 {
			continue
		}
		w.promotion = append(w.promotion, us(r.When-crashAt))
		i := sort.Search(len(ix.dataTx), func(i int) bool { return ix.dataTx[i].When > r.When })
		for ; i < len(ix.dataTx); i++ {
			if ix.dataTx[i].PID == serverPID {
				w.rollforward = append(w.rollforward, us(ix.dataTx[i].When-r.When))
				break
			}
		}
	}
	phaseAt := make(map[types.ClusterID]map[types.RepairPhase]int64)
	for _, e := range ix.repairs {
		ph := types.RepairPhase(e.Arg)
		if phaseAt[e.Cluster] == nil {
			phaseAt[e.Cluster] = make(map[types.RepairPhase]int64)
		}
		phaseAt[e.Cluster][ph] = e.When
		if ph != types.RepairRedundant {
			continue
		}
		at := phaseAt[e.Cluster]
		if rs, rb := at[types.RepairResilvering], at[types.RepairRebacking]; rs != 0 && rb != 0 {
			w.resilver = append(w.resilver, ms(rb-rs))
			w.reback = append(w.reback, ms(e.When-rb))
		}
		delete(phaseAt, e.Cluster)
	}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }
