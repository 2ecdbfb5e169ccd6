package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"auragen/internal/guest"
	"auragen/internal/types"
	"auragen/internal/workload"
)

// Wire format of the benchmark's own protocol. Every request and reply
// starts with an op byte, the client index and the transaction sequence
// number, so each payload is unique to its transaction: the traced run
// pairs a Write with its bus EvTransmit through trace.HashPayload.
//
//	'x' client seq from to amount   transfer        → 'o' client seq serial
//	'e' client seq fill...          echo            → the same bytes back
//	'a'                             audit           → 't' total serial balances...
const (
	opXfer  = 'x'
	opOK    = 'o'
	opEcho  = 'e'
	opAudit = 'a'
	opTotal = 't'

	hdrLen   = 10 // op, client, seq
	xferLen  = hdrLen + 12
	replyLen = hdrLen + 8

	serviceName = "perfbench"
	initBalance = 1000
	xferAmount  = 7
)

// txnID names one transaction across every span and event of a run.
func txnID(client int, seq uint64) uint64 { return uint64(client)<<56 | seq }

// payloadTxn extracts the transaction a payload belongs to.
func payloadTxn(data []byte) (uint64, bool) {
	if len(data) < hdrLen {
		return 0, false
	}
	switch data[0] {
	case opXfer, opOK, opEcho:
		return txnID(int(data[1]), binary.LittleEndian.Uint64(data[2:hdrLen])), true
	}
	return 0, false
}

func putHeader(b []byte, op byte, client int, seq uint64) {
	b[0] = op
	b[1] = byte(client)
	binary.LittleEndian.PutUint64(b[2:hdrLen], seq)
}

func xferReq(client int, seq uint64, from, to, amount int) []byte {
	b := make([]byte, xferLen)
	putHeader(b, opXfer, client, seq)
	binary.LittleEndian.PutUint32(b[10:], uint32(from))
	binary.LittleEndian.PutUint32(b[14:], uint32(to))
	binary.LittleEndian.PutUint32(b[18:], uint32(amount))
	return b
}

func okReply(req []byte, serial int64) []byte {
	b := make([]byte, replyLen)
	copy(b, req[:hdrLen])
	b[0] = opOK
	binary.LittleEndian.PutUint64(b[hdrLen:], uint64(serial))
	return b
}

// echoPayload fills b with the echo request for (client, seq): the header,
// then bytes derived from the workload seed, so the reference can rebuild
// any payload without storing it.
func echoPayload(b []byte, seed uint64, client int, seq uint64) {
	r := workload.NewRand(seed ^ uint64(client+1)*0x9E3779B97F4A7C15)
	for i := hdrLen; i < len(b); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.Next())
		copy(b[i:], w[:])
	}
	putHeader(b, opEcho, client, seq)
}

func acctKey(i int) string { return "a/" + strconv.Itoa(i) }

// recorder is the benchmark's side channel out of its guests. Guests only
// write to it and never read from it to decide what to do next, so the
// determinism contract (§4) of the programs under test is untouched: a
// replaying backup sends the same messages whether or not it records.
type recorder struct {
	clients [2]clientRecord
	// connected is closed when both clients have opened their channel.
	connected chan struct{}
	nconn     atomic.Int32

	// window gates latency sampling to the measured interval.
	window atomic.Bool

	crashMu sync.Mutex
	crashes []crashRecord

	auditMu sync.Mutex
	audit   []byte

	// spans is non-nil in the traced phase only.
	spans *spanStore
}

type clientRecord struct {
	completed atomic.Int64
	// connectedAt is the wall time the client's Open returned.
	connectedAt atomic.Int64

	mu      sync.Mutex
	lat     []uint32 // ns, in the current slice of the window
	failure string
	bad     int64
	writeAt int64 // start of the outstanding request's Write
}

// crashRecord is one injected crash of the failover workload.
type crashRecord struct {
	at, done  int64 // Crash call; first reply to a request written after it
	redundant time.Duration
	crash     time.Duration
	repair    time.Duration
	wait      time.Duration
}

// latencyCap bounds one client's samples per slice of the window, several
// times what the fastest workload produces in a second.
const latencyCap = 1 << 18

func newRecorder(traced bool) *recorder {
	r := &recorder{connected: make(chan struct{})}
	for i := range r.clients {
		r.clients[i].lat = make([]uint32, 0, latencyCap)
	}
	if traced {
		r.spans = newSpanStore()
	}
	return r
}

func (r *recorder) clientConnected(i int, at int64) {
	r.clients[i].connectedAt.Store(at)
	if r.nconn.Add(1) == int32(len(r.clients)) {
		close(r.connected)
	}
}

// requestSent stamps the start of client i's outstanding request.
func (r *recorder) requestSent(i int, at int64) {
	c := &r.clients[i]
	c.mu.Lock()
	c.writeAt = at
	c.mu.Unlock()
}

// replied records client i's reply arriving at its handler at time now.
func (r *recorder) replied(i int, now int64) {
	c := &r.clients[i]
	c.mu.Lock()
	sent := c.writeAt
	if r.window.Load() && len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, uint32(min(now-sent, 1<<32-1)))
	}
	c.mu.Unlock()
	c.completed.Add(1)

	r.crashMu.Lock()
	if n := len(r.crashes); n > 0 {
		cr := &r.crashes[n-1]
		if cr.done == 0 && sent >= cr.at {
			cr.done = now
		}
	}
	r.crashMu.Unlock()
}

// takeLatencies moves the samples taken since the last call into dst, in µs.
func (r *recorder) takeLatencies(dst []float64) []float64 {
	for i := range r.clients {
		c := &r.clients[i]
		c.mu.Lock()
		for _, ns := range c.lat {
			dst = append(dst, us(int64(ns)))
		}
		c.lat = c.lat[:0]
		c.mu.Unlock()
	}
	return dst
}

func (r *recorder) completed() int64 {
	var n int64
	for i := range r.clients {
		n += r.clients[i].completed.Load()
	}
	return n
}

func (r *recorder) fail(i int, format string, args ...any) {
	c := &r.clients[i]
	c.mu.Lock()
	c.bad++
	if c.failure == "" {
		c.failure = fmt.Sprintf(format, args...)
	}
	c.mu.Unlock()
}

func (r *recorder) setAudit(b []byte) {
	r.auditMu.Lock()
	r.audit = append([]byte(nil), b...)
	r.auditMu.Unlock()
}

func (r *recorder) auditReply() []byte {
	r.auditMu.Lock()
	defer r.auditMu.Unlock()
	return r.audit
}

func now() int64 { return time.Now().UnixNano() }

// clientArgs: "<index> <seed> <accounts> <size>"; accounts 0 selects the
// echo protocol with size-byte payloads.
type clientArgs struct {
	index    int
	seed     uint64
	accounts int
	size     int
}

func (a clientArgs) encode() []byte {
	return []byte(fmt.Sprintf("%d %d %d %d", a.index, a.seed, a.accounts, a.size))
}

func parseClientArgs(b []byte) (clientArgs, error) {
	var a clientArgs
	if _, err := fmt.Sscanf(string(b), "%d %d %d %d", &a.index, &a.seed, &a.accounts, &a.size); err != nil {
		return a, fmt.Errorf("perfbench client: bad args %q: %v", b, err)
	}
	return a, nil
}

// plan is client i's transfer schedule; the reference replays the same one.
func plan(seed uint64, accounts, client int) workload.TxnPlan {
	return workload.TxnPlan{Accounts: accounts, Amount: xferAmount, Seed: seed*0x100 + uint64(client)}
}

// client is a closed-loop load generator: one outstanding request, the next sent
// from the handler that receives the previous reply. It waits for a first
// SigUser to start and stops at the second, after its outstanding reply.
type client struct {
	rec   *recorder
	args  clientArgs
	ready bool
	// buf holds the echo payload in flight; it is rebuilt from args and
	// the sequence number in the heap, so it is a reusable buffer, not state.
	buf []byte
}

// init parses the arguments once per guest instance: a promoted backup
// resumes in OnMessage without re-running Start.
func (c *client) init(p guest.API) error {
	if c.ready {
		return nil
	}
	a, err := parseClientArgs(p.Args())
	c.args, c.ready = a, err == nil
	return err
}

func (c *client) Start(p guest.API, st *guest.State) error {
	if err := c.init(p); err != nil {
		return err
	}
	a := c.args
	fd, err := p.Open("dial:" + serviceName)
	if err != nil {
		return err
	}
	st.PutInt64("fd", int64(fd))
	c.rec.clientConnected(a.index, now())
	return nil
}

func (c *client) OnSignal(p guest.API, st *guest.State, sig types.Signal) error {
	if err := c.init(p); err != nil || sig != types.SigUser {
		return err
	}
	if st.Add("sig", 1) == 1 {
		return c.send(p, st)
	}
	return nil
}

func (c *client) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	t := now()
	if err := c.init(p); err != nil || int64(fd) != st.GetInt64("fd") {
		return err
	}
	a := c.args
	seq := st.GetUint64("seq")
	if id, ok := payloadTxn(data); !ok || id != txnID(a.index, seq) {
		// A duplicate or stray reply: count it and keep waiting for the
		// reply to the outstanding request.
		c.rec.fail(a.index, "client %d: got reply %x while waiting for txn %d", a.index, data[:min(len(data), hdrLen)], seq)
		return nil
	}
	if a.accounts > 0 {
		if len(data) != replyLen || data[0] != opOK {
			c.rec.fail(a.index, "client %d: malformed reply %x for txn %d", a.index, data, seq)
		} else if serial := int64(binary.LittleEndian.Uint64(data[hdrLen:])); serial <= st.GetInt64("serial") {
			c.rec.fail(a.index, "client %d: reply serial %d for txn %d is not past %d", a.index, serial, seq, st.GetInt64("serial"))
		} else {
			st.PutInt64("serial", serial)
		}
	} else if !bytes.Equal(data, c.echo(seq)) {
		c.rec.fail(a.index, "client %d: echo of txn %d came back altered", a.index, seq)
	}
	c.rec.replied(a.index, t)
	st.PutUint64("seq", seq+1)
	if st.GetInt64("sig") >= 2 {
		st.Exit()
		return nil
	}
	return c.send(p, st)
}

func (c *client) echo(seq uint64) []byte {
	if c.buf == nil {
		c.buf = make([]byte, c.args.size)
	}
	echoPayload(c.buf, c.args.seed, c.args.index, seq)
	return c.buf
}

func (c *client) send(p guest.API, st *guest.State) error {
	a := c.args
	seq := st.GetUint64("seq")
	var req []byte
	if a.accounts > 0 {
		from, to, amount := plan(a.seed, a.accounts, a.index).Txn(int(seq))
		req = xferReq(a.index, seq, from, to, amount)
	} else {
		req = c.echo(seq)
	}
	c.rec.requestSent(a.index, now())
	return p.Write(types.FD(st.GetInt64("fd")), req)
}

// server serves the bank protocol (accounts > 0) or echoes (accounts 0).
// Balances live in the KV heap, so every transfer is part of the synced
// state. Args: "<accounts>".
type server struct{}

func (server) Start(p guest.API, st *guest.State) error {
	accounts, err := strconv.Atoi(string(p.Args()))
	if err != nil {
		return fmt.Errorf("perfbench server: bad args %q: %v", p.Args(), err)
	}
	for i := 0; i < accounts; i++ {
		st.PutInt64(acctKey(i), initBalance)
	}
	st.PutInt64("accounts", int64(accounts))
	fd, err := p.Open("serve:" + serviceName)
	if err != nil {
		return err
	}
	st.PutInt64("listen", int64(fd))
	return nil
}

func (server) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error {
	if int64(fd) == st.GetInt64("listen") {
		_, err := p.Accept(data)
		return err
	}
	if len(data) == 0 {
		return p.Write(fd, []byte("?"))
	}
	switch data[0] {
	case opXfer:
		if len(data) != xferLen {
			return p.Write(fd, []byte("?"))
		}
		from := int(binary.LittleEndian.Uint32(data[10:]))
		to := int(binary.LittleEndian.Uint32(data[14:]))
		amount := int64(binary.LittleEndian.Uint32(data[18:]))
		st.Add(acctKey(from), -amount)
		st.Add(acctKey(to), amount)
		return p.Write(fd, okReply(data, st.Add("serial", 1)))
	case opEcho:
		st.Add("serial", 1)
		return p.Write(fd, data)
	case opAudit:
		accounts := int(st.GetInt64("accounts"))
		out := make([]byte, 17+8*accounts)
		var total int64
		for i := 0; i < accounts; i++ {
			b := st.GetInt64(acctKey(i))
			total += b
			binary.LittleEndian.PutUint64(out[17+8*i:], uint64(b))
		}
		out[0] = opTotal
		binary.LittleEndian.PutUint64(out[1:], uint64(total))
		binary.LittleEndian.PutUint64(out[9:], uint64(st.Add("serial", 1)))
		return p.Write(fd, out)
	}
	return p.Write(fd, []byte("?"))
}

func (server) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

// checker reads the server's final state with one audit call and hands the
// reply to the benchmark.
type checker struct{ rec *recorder }

func (c checker) Start(p guest.API, st *guest.State) error {
	fd, err := p.Open("dial:" + serviceName)
	if err != nil {
		return err
	}
	reply, err := p.Call(fd, []byte{opAudit})
	if err != nil {
		return err
	}
	c.rec.setAudit(reply)
	st.Exit()
	return nil
}

func (checker) OnMessage(p guest.API, st *guest.State, fd types.FD, data []byte) error { return nil }

func (checker) OnSignal(p guest.API, st *guest.State, sig types.Signal) error { return nil }

// register binds the benchmark's programs to rec. In the traced phase
// each guest is wrapped so that its calls into the guest API are spanned.
func register(reg *guest.Registry, rec *recorder) {
	wrap := func(role spanRole, mk func() guest.Handler) guest.Factory {
		f := guest.ReactorFactory(mk)
		if rec.spans == nil {
			return f
		}
		return func() guest.Guest { return &tracedGuest{inner: f(), buf: rec.spans.buffer(role)} }
	}
	reg.Register("pb-client", wrap(roleClient, func() guest.Handler { return &client{rec: rec} }))
	reg.Register("pb-server", wrap(roleServer, func() guest.Handler { return server{} }))
	reg.Register("pb-checker", wrap(roleChecker, func() guest.Handler { return checker{rec: rec} }))
}
