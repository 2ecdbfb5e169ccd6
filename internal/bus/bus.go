// Package bus simulates the Auragen dual high-speed intercluster bus
// (§7.1) and the two delivery guarantees the message system is built on
// (§5.1):
//
//  1. Atomicity — either every target cluster of a transmission receives
//     the message, or none does.
//  2. No interleaving — a cluster transmits or receives one message at a
//     time, so if two messages are sent, one reaches all of its
//     destinations before the other arrives at any of its destinations. A
//     primary and its backup therefore observe their common messages in
//     the same order.
//
// The hardware achieved this with a low-level listen-before-transmit
// protocol; here a single critical section appends the message to every
// live target cluster's inbound queue, which yields exactly the same
// ordering properties. Each transmission is counted once regardless of the
// number of destinations, matching §8.1 ("transmitted just once across the
// intercluster bus").
//
// The bus is dual: either of the two physical buses suffices, and the loss
// of one is a tolerated single failure. Losing both is a multiple failure
// and Broadcast reports types.ErrTooManyFailures.
package bus

import (
	"fmt"
	"sort"
	"sync"

	"auragen/internal/trace"
	"auragen/internal/types"
)

// NumBuses is the number of redundant physical buses (the Auragen 4000 has
// a dual bus).
const NumBuses = 2

// MaxTransmitAttempts bounds how many times one transmission is attempted
// before the bus reports the fault to the sender. The first attempt plus
// retries all happen inside the same critical section, so retried
// transmissions keep their place in the §5.1 total order.
const MaxTransmitAttempts = 3

// FaultHook decides whether an injected transient fault drops one
// transmission attempt. It is consulted once per attempt with the physical
// bus chosen, the message about to be transmitted, and the 0-based attempt
// number; returning true drops that attempt. The hook runs inside the
// bus's critical section: it must be fast, must not block, and must not
// call back into the Bus (FailBus, Broadcast, ...) or it will deadlock.
type FaultHook func(busIdx int, m *types.Message, attempt int) bool

// Link names one directed cluster-to-cluster edge of one physical bus, the
// unit of partition state. NoCluster in either field is a wildcard: From ==
// NoCluster cuts every sender's path to To (an inbound cut), To == NoCluster
// cuts From's path to every receiver (an outbound cut).
type Link struct {
	From, To types.ClusterID
}

// Corrupter models wire corruption: it takes the message about to be
// delivered and returns what survives the receiver's fail-closed frame
// decoding — nil when the corrupted frame was rejected (the overwhelmingly
// common case, since frames are checksummed), so the transmission becomes
// an omission rather than a delivered lie. Installed by the system facade,
// which owns the frame codec; it runs inside the bus critical section and
// must not call back into the Bus.
type Corrupter func(*types.Message) *types.Message

// delayedTx is one transmission held back by an armed delay fault: the
// message was transmitted (ID minted, in order) but its deliveries are
// withheld until `due` further transmissions have been accepted — the bus's
// reordering primitive.
type delayedTx struct {
	m       *types.Message
	targets []types.ClusterID // nil: every cluster live at release time
	idx     int               // physical bus chosen at transmit time
	due     uint64            // release when nextID reaches this
}

// Bus connects 2..32 clusters. All methods are safe for concurrent use.
type Bus struct {
	metrics *trace.Metrics
	log     *trace.EventLog

	mu      sync.Mutex
	inboxes map[types.ClusterID]*Inbox
	failed  [NumBuses]bool
	fault   FaultHook
	// nextID mints the monotonic per-transmission message ID under mu, so
	// IDs are assigned in the bus's total transmission order.
	nextID uint64
	// ports mirrors inboxes as a slice sorted by cluster id, for the batch
	// hot path: a linear scan over a handful of clusters beats a map
	// lookup per message per target.
	ports []*busPort

	// Lossy-wire fault state (see Cut, ArmDuplicates, ArmCorrupt,
	// ArmDelay). cut holds the per-bus directed link masks of the active
	// partition; the remaining fields are one-shot armed counts consumed by
	// subsequent transmissions.
	cut          [NumBuses]map[Link]bool
	dupArmed     int
	corruptArmed int
	corrupter    Corrupter
	delayArmed   int
	delayGap     uint64
	delayed      []delayedTx
	holdWatchdog func()
}

// busPort is one attached cluster as seen by the batch fast path. dirty is
// scratch state of the batch in flight: whether this port received any
// appends and must be signalled at flush (only touched under both b.mu and
// the port's inbox lock).
type busPort struct {
	c     types.ClusterID
	in    *Inbox
	dirty bool
}

// New returns an empty bus reporting into the given shared metrics sink.
// metrics must not be nil: a silently substituted private sink would split
// the system's counters across invisible instances (assemble one with
// core.NewObservability). log may be nil to disable event recording; the
// disabled path does no work.
func New(metrics *trace.Metrics, log *trace.EventLog) *Bus {
	if metrics == nil {
		panic("bus: nil *trace.Metrics; use a shared sink (see core.NewObservability)")
	}
	return &Bus{
		metrics: metrics,
		log:     log,
		inboxes: make(map[types.ClusterID]*Inbox),
	}
}

// Metrics returns the shared metrics sink the bus reports into.
func (b *Bus) Metrics() *trace.Metrics { return b.metrics }

// EventLog returns the event log the bus records into (nil when disabled).
func (b *Bus) EventLog() *trace.EventLog { return b.log }

// Attach registers a cluster and returns its inbound queue. Attaching an
// already-attached cluster replaces its inbox (used when a cluster returns
// to service after repair, §7.3 halfbacks).
func (b *Bus) Attach(c types.ClusterID) *Inbox {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.inboxes[c]; ok {
		old.Close()
	}
	in := newInbox(c)
	b.inboxes[c] = in
	b.rebuildPortsLocked()
	return in
}

// rebuildPortsLocked re-derives the sorted port slice from the inbox map
// after an attach or detach. Caller holds mu.
func (b *Bus) rebuildPortsLocked() {
	b.ports = b.ports[:0]
	for _, c := range b.liveSortedLocked() {
		b.ports = append(b.ports, &busPort{c: c, in: b.inboxes[c]})
	}
}

// portLocked returns the port for cluster c, or nil if c is not attached.
func (b *Bus) portLocked(c types.ClusterID) *busPort {
	for _, p := range b.ports {
		if p.c == c {
			return p
		}
	}
	return nil
}

// Detach removes a crashed cluster. Its inbox is closed; in-flight messages
// already appended are discarded with it, exactly as a powered-off cluster
// loses its receive buffers.
func (b *Bus) Detach(c types.ClusterID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if in, ok := b.inboxes[c]; ok {
		in.Close()
		delete(b.inboxes, c)
		b.rebuildPortsLocked()
	}
}

// FailBus marks one of the redundant physical buses failed (0-based).
// Returns an error if i is out of range.
func (b *Bus) FailBus(i int) error {
	if i < 0 || i >= NumBuses {
		return fmt.Errorf("bus: no bus %d", i)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed[i] = true
	return nil
}

// RepairBus returns a failed physical bus to service.
func (b *Bus) RepairBus(i int) error {
	if i < 0 || i >= NumBuses {
		return fmt.Errorf("bus: no bus %d", i)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed[i] = false
	return nil
}

// SetFaultHook installs (or, with nil, removes) the transient-fault hook
// consulted on every transmission attempt. See FaultHook for the contract.
func (b *Bus) SetFaultHook(h FaultHook) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fault = h
}

// Cut severs one directed link of one physical bus: deliveries from `from`
// to `to` over bus i are silently discarded — the sender is never told,
// because a partitioned network lies (unlike FailBus, which every sender
// observes as a failover). NoCluster wildcards match any sender or any
// receiver; see Link. A delivery is only lost when its link is cut on
// every healthy bus — with one bus cut and the other clear, traffic fails
// over per-target and the dual-bus redundancy absorbs the partition.
func (b *Bus) Cut(i int, from, to types.ClusterID) error {
	if i < 0 || i >= NumBuses {
		return fmt.Errorf("bus: no bus %d", i)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cut[i] == nil {
		b.cut[i] = make(map[Link]bool)
	}
	b.cut[i][Link{From: from, To: to}] = true
	return nil
}

// HealCut restores one directed link previously severed by Cut.
func (b *Bus) HealCut(i int, from, to types.ClusterID) error {
	if i < 0 || i >= NumBuses {
		return fmt.Errorf("bus: no bus %d", i)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.cut[i], Link{From: from, To: to})
	return nil
}

// HealAllCuts restores every severed link and releases every transmission
// still held by an armed delay — the "network comes back" coordinate of a
// partition schedule.
func (b *Bus) HealAllCuts() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.cut {
		b.cut[i] = nil
	}
	for i := range b.delayed {
		b.delayed[i].due = 0
	}
	b.releaseDueLocked()
}

// ArmDuplicates makes the next n transmissions deliver two copies (same
// bus-minted ID) to each target — the wire's at-least-once lie, which
// receiver-side dedup must suppress.
func (b *Bus) ArmDuplicates(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dupArmed += n
}

// ArmCorrupt makes the next n transmissions pass through the installed
// Corrupter. With no corrupter installed the transmission is simply
// dropped, the degenerate model of a corrupted frame dying in validation.
func (b *Bus) ArmCorrupt(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.corruptArmed += n
}

// SetCorrupter installs (or, with nil, removes) the corruption model
// applied to transmissions armed by ArmCorrupt.
func (b *Bus) SetCorrupter(fn Corrupter) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.corrupter = fn
}

// ArmDelay holds back the next n transmissions, releasing each after gap
// further transmissions have been accepted: deliveries arrive late and out
// of ID order while the §5.1 mint order is preserved. The facade that arms
// the fault should also install a hold watchdog (SetHoldWatchdog) so a
// held critical-path frame cannot deadlock a quiesced system.
func (b *Bus) ArmDelay(n, gap int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.delayArmed += n
	if gap < 1 {
		gap = 1
	}
	b.delayGap = uint64(gap)
}

// SetHoldWatchdog installs the hook invoked each time a transmission is
// held by a delay fault. The bus itself is deterministic and keeps no
// timers; the policy layer uses the hook to schedule a real-time
// FlushDelayed so a held frame that starves (the reply its only active
// sender is blocked on) is eventually released. The hook runs under the
// bus mutex and must only schedule — never call back into the Bus
// synchronously.
func (b *Bus) SetHoldWatchdog(fn func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.holdWatchdog = fn
}

// FlushDelayed delivers every transmission still held by a delay fault.
func (b *Bus) FlushDelayed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.delayed {
		b.delayed[i].due = 0
	}
	b.releaseDueLocked()
}

// Reachable reports whether any healthy physical bus still carries
// traffic toward c. The failure detector's probes ride the same wire as
// everything else, so a cluster with every inbound path cut or failed
// stops answering probes — indistinguishable, from outside, from a crash.
// That is precisely the partition dilemma §7.10's polling cannot solve,
// and why declarations bump incarnations instead of assuming the silent
// cluster is really dead.
func (b *Bus) Reachable(c types.ClusterID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < NumBuses; i++ {
		if !b.failed[i] && !b.cutLocked(i, types.NoCluster, c) {
			return true
		}
	}
	return false
}

// cutLocked reports whether the directed link from→to is severed on bus i,
// honoring the wildcard entries.
func (b *Bus) cutLocked(i int, from, to types.ClusterID) bool {
	m := b.cut[i]
	if len(m) == 0 {
		return false
	}
	return m[Link{From: from, To: to}] ||
		m[Link{From: types.NoCluster, To: to}] ||
		m[Link{From: from, To: types.NoCluster}]
}

// linkMaskedLocked decides one target's fate under the active partition:
// false means deliver (possibly after a per-target failover to the other
// healthy bus), true means the delivery is silently lost and counted.
func (b *Bus) linkMaskedLocked(idx int, from, to types.ClusterID) bool {
	if !b.cutLocked(idx, from, to) {
		return false
	}
	for i := 0; i < NumBuses; i++ {
		if i == idx || b.failed[i] {
			continue
		}
		if !b.cutLocked(i, from, to) {
			b.metrics.BusFailovers.Add(1)
			return false
		}
	}
	b.metrics.PartitionDrops.Add(1)
	return true
}

// releaseDueLocked delivers every held transmission whose release point has
// passed. Caller holds b.mu and no inbox locks (push acquires them).
func (b *Bus) releaseDueLocked() {
	if len(b.delayed) == 0 {
		return
	}
	kept := b.delayed[:0]
	for _, d := range b.delayed {
		if d.due > b.nextID {
			kept = append(kept, d)
			continue
		}
		targets := d.targets
		if targets == nil {
			targets = b.liveSortedLocked()
		}
		for _, c := range targets {
			in, ok := b.inboxes[c]
			if !ok {
				continue
			}
			if b.linkMaskedLocked(d.idx, d.m.Origin, c) {
				continue
			}
			depth := in.push(d.m.Clone())
			b.metrics.BusDeliveries.Add(1)
			b.metrics.MaxInboxPeak(uint64(depth))
			b.logReceive(d.m, c)
		}
	}
	b.delayed = kept
}

// Live returns the attached clusters in ascending order.
func (b *Bus) Live() []types.ClusterID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]types.ClusterID, 0, len(b.inboxes))
	for c := range b.inboxes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsLive reports whether cluster c is attached.
func (b *Bus) IsLive(c types.ClusterID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.inboxes[c]
	return ok
}

// Broadcast transmits m once and delivers an independent copy to every
// live cluster named in m.Route. Delivery to all targets happens inside one
// critical section, which provides the §5.1 atomicity and non-interleaving
// guarantees. Crashed (detached) targets are skipped: a message to a dead
// cluster is simply not received there, while the remaining targets still
// receive it.
func (b *Bus) Broadcast(m *types.Message) error {
	return b.deliver(m, m.Route.Targets())
}

// BroadcastAll transmits m to every live cluster. Used for crash notices
// (§7.10.1) and other membership-level events, so that every kernel sees
// the notice at the same point in the total message order.
func (b *Bus) BroadcastAll(m *types.Message) error {
	return b.deliver(m, nil)
}

// selectBusLocked picks the physical bus for one transmission attempt: the
// preferred bus 0 when healthy, else bus 1 (a failover, counted once per
// transmission on attempt 0). Returns -1 when no bus is healthy.
func (b *Bus) selectBusLocked(attempt int) int {
	for i := 0; i < NumBuses; i++ {
		if !b.failed[i] {
			if i > 0 && attempt == 0 {
				b.metrics.BusFailovers.Add(1)
			}
			return i
		}
	}
	return -1
}

// transmitLocked is offerLocked plus the per-message transmit metrics; the
// single-message paths use it, while BroadcastBatch aggregates the counter
// updates across the whole batch. Returns the physical bus chosen.
func (b *Bus) transmitLocked(m *types.Message) (int, error) {
	idx, err := b.offerLocked(m)
	if err != nil {
		return idx, err
	}
	b.metrics.BusTransmissions.Add(1)
	b.metrics.BusBytes.Add(uint64(len(m.Payload)))
	return idx, nil
}

// offerLocked runs the physical-transmission half of one message: pick
// a healthy bus, retry (within the same critical section, preserving the
// total order) when an injected transient fault drops an attempt, mint the
// message ID, and record the transmit event. The loss of one
// bus is a tolerated single failure: traffic fails over to the survivor
// and the caller never notices. Losing both is a multiple failure.
func (b *Bus) offerLocked(m *types.Message) (int, error) {
	if m.Lazy != nil {
		// The executive resolves deferred payloads before the bus accepts
		// the message; the transmit event below hashes the bytes.
		panic("bus: message reached the bus with an unresolved lazy payload")
	}
	sent := -1
	for attempt := 0; attempt < MaxTransmitAttempts; attempt++ {
		idx := b.selectBusLocked(attempt)
		if idx < 0 {
			return -1, fmt.Errorf("bus: both physical buses down: %w", types.ErrTooManyFailures)
		}
		if b.fault != nil && b.fault(idx, m, attempt) {
			b.metrics.BusFaultDrops.Add(1)
			if attempt+1 < MaxTransmitAttempts {
				b.metrics.BusRetries.Add(1)
			}
			if b.log != nil {
				b.log.Append(trace.Event{
					Kind:    trace.EvNote,
					Cluster: types.NoCluster,
					MsgKind: m.Kind,
					PID:     m.Src,
					Note:    fmt.Sprintf("bus%d: transient fault dropped attempt %d", idx, attempt),
				})
			}
			continue
		}
		// An armed corrupt fault damages this attempt's frame in flight.
		// The fail-closed wire decode (checksummed batches, no partial
		// prefixes) almost surely rejects the damage; the link layer sees
		// the rejection as a failed attempt and retries, exactly like a
		// transient drop. Only a flip the checksum cannot see — the
		// corrupter returning a decodable frame — goes through, and then
		// the decoded bytes are what every target receives.
		if b.corruptArmed > 0 {
			b.corruptArmed--
			var survived *types.Message
			if b.corrupter != nil {
				survived = b.corrupter(m)
			}
			if survived == nil {
				b.metrics.CorruptFrameDrops.Add(1)
				if attempt+1 < MaxTransmitAttempts {
					b.metrics.BusRetries.Add(1)
				}
				if b.log != nil {
					b.log.Append(trace.Event{
						Kind:    trace.EvNote,
						Cluster: types.NoCluster,
						MsgKind: m.Kind,
						PID:     m.Src,
						Note:    fmt.Sprintf("bus%d: corrupted frame rejected by fail-closed decode, attempt %d dropped", idx, attempt),
					})
				}
				continue
			}
			*m = *survived
		}
		sent = idx
		break
	}
	if sent < 0 {
		return -1, fmt.Errorf("bus: transmission dropped %d times: %w",
			MaxTransmitAttempts, types.ErrTooManyFailures)
	}
	b.nextID++
	m.ID = b.nextID
	if b.log != nil {
		b.log.Append(trace.Event{
			Kind:    trace.EvTransmit,
			Cluster: types.NoCluster,
			MsgID:   m.ID,
			MsgKind: m.Kind,
			PID:     m.Src,
			Channel: m.Channel,
			Arg:     trace.HashPayload(m.Payload),
		})
	}
	return sent, nil
}

// liveSortedLocked returns the attached clusters in ascending order.
func (b *Bus) liveSortedLocked() []types.ClusterID {
	out := make([]types.ClusterID, 0, len(b.inboxes))
	for c := range b.inboxes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (b *Bus) logReceive(m *types.Message, c types.ClusterID) {
	if b.log != nil {
		b.log.Append(trace.Event{
			Kind:    trace.EvReceive,
			Cluster: c,
			MsgID:   m.ID,
			MsgKind: m.Kind,
			PID:     m.Dst,
			Channel: m.Channel,
		})
	}
}

func (b *Bus) deliver(m *types.Message, targets []types.ClusterID) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx, err := b.transmitLocked(m)
	if err != nil {
		return err
	}
	if targets == nil {
		targets = b.liveSortedLocked()
	}
	m, delivered := b.applyWireFaultsLocked(m, targets, idx)
	if delivered {
		copies := 1
		if b.dupArmed > 0 {
			b.dupArmed--
			copies = 2
		}
		for _, c := range targets {
			in, ok := b.inboxes[c]
			if !ok {
				continue
			}
			if b.linkMaskedLocked(idx, m.Origin, c) {
				continue
			}
			for i := 0; i < copies; i++ {
				depth := in.push(m.Clone())
				b.metrics.BusDeliveries.Add(1)
				b.metrics.MaxInboxPeak(uint64(depth))
				b.logReceive(m, c)
			}
		}
	}
	b.releaseDueLocked()
	return nil
}

// applyWireFaultsLocked consumes any armed delay fault for one
// transmission. It returns the message and whether delivery should
// proceed now: false means the transmission is being held by a delay and
// will release into the total order later. The sender never learns —
// wire delays are silent by construction. (Corruption is consumed
// upstream in offerLocked's attempt loop, where the link layer's retry
// can recover a frame the fail-closed decoder rejected.)
func (b *Bus) applyWireFaultsLocked(m *types.Message, targets []types.ClusterID, idx int) (*types.Message, bool) {
	if b.delayArmed > 0 {
		b.delayArmed--
		var tgts []types.ClusterID
		if targets != nil {
			tgts = append([]types.ClusterID(nil), targets...)
		}
		b.delayed = append(b.delayed, delayedTx{
			m: m.Clone(), targets: tgts, idx: idx, due: b.nextID + b.delayGap,
		})
		// Per-frame watchdog: the hold may happen long after ArmDelay (the
		// armed count is consumed by later transmissions), and the held
		// frame may be the very reply the system's only active sender is
		// blocked on — in which case no further traffic will ever reach
		// the release point. The hook only schedules; safe under b.mu.
		if b.holdWatchdog != nil {
			b.holdWatchdog()
		}
		return m, false
	}
	return m, true
}

// globalKind reports whether a message kind is a membership-level event
// that every live cluster must observe at the same point in the total
// message order (§7.10.1), i.e. whether it routes like BroadcastAll.
func globalKind(k types.Kind) bool {
	return k == types.KindBackupUp || k == types.KindCrashNotice
}

// BroadcastBatch transmits msgs, in order, inside ONE critical section:
// the executive acquires the §5.1 ordering lock once per batch instead of
// once per message, which is where batched senders win their throughput.
// Per-message semantics are unchanged — every message gets its own
// transmission attempt/fault-retry loop, minted ID, transmit event, and
// per-target delivery (messages of a membership-level kind reach every
// live cluster, as with BroadcastAll). Every target inbox is acquired once
// for the whole batch (uniform ascending-cluster order; consumers only
// ever take their own inbox lock, so the nesting cannot deadlock), and
// each delivered message value is written exactly once, directly into its
// target queues — no staging list, no second copy at flush.
//
// The bus never copies payload bytes (§5.1: copies are executive work, not
// bus work). Each message's Payload and Nondet are owned by its sender,
// who made the one private copy (the kernel's Write, the transmit loop's
// encode of a lazy payload) and never mutates them again; every target
// shares those slices read-only, so steady-state batched delivery
// allocates nothing at all. The kernel's dispatch takes a shallow copy of
// the message value before stamping arrival state.
//
// Returns the number of messages transmitted. On error, msgs[sent:] were
// not transmitted and not delivered anywhere (the batch analogue of
// atomicity: a fault truncates the batch, it never punches holes in it);
// messages before the fault are delivered normally.
func (b *Bus) BroadcastBatch(msgs []*types.Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Acquire every attached cluster's receive buffer for the duration of
	// the batch. Nothing can close or replace an inbox while b.mu is held,
	// and bounded inboxes only exist in benchmark rigs whose consumers
	// never send, so waiting for receive-buffer space inside this nesting
	// cannot deadlock.
	for _, p := range b.ports {
		p.in.mu.Lock()
		p.dirty = false
	}
	sent := 0
	var failure error
	var txBytes, deliveries uint64
	// Consecutive messages in a batch usually share a Route (one sender,
	// one conversation, one backup set), so the route→ports resolution is
	// computed once and reused until the route changes.
	var cachedRoute types.Route
	var cachedPorts [3]*busPort
	cachedN := -1
	for _, m := range msgs {
		idx, err := b.offerLocked(m)
		if err != nil {
			failure = err
			break
		}
		sent++
		txBytes += uint64(len(m.Payload))
		if b.delayArmed > 0 {
			// Held transmissions fall off the batch fast path: a delayed
			// entry stages nothing now and releases through push after
			// the receive buffers are unlocked (see the flush below).
			var tgts []types.ClusterID
			if !globalKind(m.Kind) {
				var tbuf [3]types.ClusterID
				tgts = append([]types.ClusterID(nil), m.Route.AppendTargets(tbuf[:0])...)
			}
			if _, deliverNow := b.applyWireFaultsLocked(m, tgts, idx); !deliverNow {
				continue
			}
		}
		copies := 1
		if b.dupArmed > 0 {
			b.dupArmed--
			copies = 2
		}
		if globalKind(m.Kind) {
			for _, p := range b.ports {
				if b.linkMaskedLocked(idx, m.Origin, p.c) {
					continue
				}
				for i := 0; i < copies; i++ {
					if p.in.appendLocked(m) {
						p.dirty = true
						deliveries++
						b.logReceive(m, p.c)
					}
				}
			}
			continue
		}
		if cachedN < 0 || m.Route != cachedRoute {
			cachedRoute = m.Route
			cachedN = 0
			var tbuf [3]types.ClusterID
			for _, c := range m.Route.AppendTargets(tbuf[:0]) {
				if p := b.portLocked(c); p != nil {
					cachedPorts[cachedN] = p
					cachedN++
				}
			}
		}
		for _, p := range cachedPorts[:cachedN] {
			if b.linkMaskedLocked(idx, m.Origin, p.c) {
				continue
			}
			for i := 0; i < copies; i++ {
				if p.in.appendLocked(m) {
					p.dirty = true
					deliveries++
					b.logReceive(m, p.c)
				}
			}
		}
	}
	b.metrics.BusBatches.Add(1)
	b.metrics.BusBatchedMessages.Add(uint64(sent))
	b.metrics.BusTransmissions.Add(uint64(sent))
	b.metrics.BusBytes.Add(txBytes)
	b.metrics.BusDeliveries.Add(deliveries)
	// Release the receive buffers in the same uniform order, waking each
	// consumer that got messages. Still inside the bus critical section, so
	// no observer can distinguish this from per-message pushes.
	for _, p := range b.ports {
		if p.dirty {
			b.metrics.MaxInboxPeak(uint64(p.in.peak))
			p.in.cond.Signal()
		}
		p.in.mu.Unlock()
	}
	// Flush delay-released transmissions now that no receive buffers are
	// held (release pushes take each inbox lock individually).
	b.releaseDueLocked()
	return sent, failure
}

// Inbox is a cluster's inbound message queue, drained by the cluster's
// executive processor. By default pushes never block (the executive keeps
// pace in the real hardware; here the queue is unbounded and the executive
// goroutine drains it) and the depth high-watermark is exported through
// Peak and the shared inbox_peak metric — the backpressure signal a
// production deployment watches. SetLimit opts one inbox into a bounded,
// blocking queue for tests that need hard backpressure; see its caveats.
type Inbox struct {
	cluster types.ClusterID

	mu    sync.Mutex
	cond  *sync.Cond // signaled when messages arrive or the inbox closes
	space *sync.Cond // signaled when a bounded queue frees a slot
	// q stores message VALUES, not pointers: queue slots are the cluster's
	// receive buffers, and PopAll recycles their backing arrays between
	// the bus and the consumer, so steady-state batched delivery allocates
	// nothing.
	q      []types.Message
	limit  int // 0: unbounded
	peak   int
	closed bool
	// borrowed is the size of the batch most recently handed out by PopAll
	// and not yet returned — the consumer signals it is done by coming back
	// for more (PopAll's contract already requires that). Backlog counts it;
	// Len does not.
	borrowed int
	// jitter, when non-nil, makes PopAll hand back a random FIFO *prefix*
	// of the queue instead of the whole thing — the schedule perturber's
	// delivery-order hook. A prefix never reorders messages within the
	// inbox, so every partial-order guarantee (per-channel sequencing,
	// §5.1 atomic-broadcast ordering) is preserved; only the interleaving
	// of executive dispatch against bus arrivals changes. Off by default.
	jitter *types.RNG
}

func newInbox(c types.ClusterID) *Inbox {
	in := &Inbox{cluster: c}
	in.cond = sync.NewCond(&in.mu)
	in.space = sync.NewCond(&in.mu)
	return in
}

// Cluster returns the owning cluster.
func (in *Inbox) Cluster() types.ClusterID { return in.cluster }

// SetLimit bounds the queue to n messages (n <= 0 restores the default,
// unbounded). When bounded, push blocks until the consumer frees a slot or
// the inbox closes. Pushes run inside the bus critical section, so a
// bounded inbox backpressures the WHOLE bus: no cluster receives anything
// while a push waits, and a consumer that never drains would wedge every
// sender. It exists for backpressure tests; systems keep inboxes unbounded
// and watch the inbox_peak watermark instead (see DESIGN.md).
func (in *Inbox) SetLimit(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n < 0 {
		n = 0
	}
	in.limit = n
	in.space.Broadcast()
}

// SetDrainJitter installs (or, with nil, removes) the seeded RNG that
// perturbs PopAll into partial drains. The RNG is owned by the inbox
// afterwards: all draws happen under in.mu, so a shared parent RNG must
// be split before installation (see core.Options.ScheduleSeed).
func (in *Inbox) SetDrainJitter(rng *types.RNG) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.jitter = rng
}

// Peak returns the high-watermark queue depth observed so far.
func (in *Inbox) Peak() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.peak
}

// appendLocked appends one delivered message value behind the queue; its
// payload and nondet slices stay shared with the sender and every other
// target (read-only, see BroadcastBatch). Caller already holds in.mu —
// the batch path acquires every target inbox once for the whole batch and
// signals the consumer once at release. A bounded queue that is out of
// receive-buffer space wakes its consumer and waits for room (space.Wait
// releases in.mu, so the consumer can drain mid-batch). Returns false if
// the inbox is closed: a powered-off cluster loses its receive buffers and
// the message is simply not received there.
func (in *Inbox) appendLocked(m *types.Message) bool {
	for in.limit > 0 && len(in.q) >= in.limit && !in.closed {
		in.cond.Signal()
		in.space.Wait()
	}
	if in.closed {
		return false
	}
	in.q = append(in.q, *m)
	if len(in.q) > in.peak {
		in.peak = len(in.q)
	}
	return true
}

// push enqueues a copy of *m and returns the resulting queue depth (0 when
// the inbox is closed and the message discarded).
func (in *Inbox) push(m *types.Message) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.appendLocked(m) {
		return 0
	}
	in.cond.Signal()
	return len(in.q)
}

// Pop blocks until a message is available or the inbox is closed, and
// returns a private copy of the head message. The second result is false
// once the inbox is closed and drained.
func (in *Inbox) Pop() (*types.Message, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for len(in.q) == 0 && !in.closed {
		in.cond.Wait()
	}
	if len(in.q) == 0 {
		return nil, false
	}
	m := in.q[0]
	in.q = in.q[1:]
	if len(in.q) > 0 {
		// More queued: keep the consumer awake (pushAll signals once for a
		// whole batch).
		in.cond.Signal()
	}
	in.space.Signal()
	return &m, true
}

// PopAll blocks until at least one message is available or the inbox is
// closed, then drains the entire queue in one lock acquisition by SWAPPING
// buffers: the queue's backing array is handed to the caller and the
// caller's previous buffer (buf; nil is fine) becomes the new queue, so
// steady-state draining moves no messages and allocates nothing. The
// caller must therefore be completely done with the previously returned
// slice before passing it back — the executive copies each message before
// handing it to process-level code (see Kernel.dispatch). PopAll zeroes
// buf before reusing it, so a buffer that grew during a burst does not
// keep consumed payloads reachable from its spare capacity. The second
// result is false once the inbox is closed and drained.
func (in *Inbox) PopAll(buf []types.Message) ([]types.Message, bool) {
	clear(buf)
	in.mu.Lock()
	defer in.mu.Unlock()
	// Coming back for more means the previous batch has been fully consumed
	// (the buffer-recycling contract above); it stops counting toward
	// Backlog from here on.
	in.borrowed = 0
	for len(in.q) == 0 && !in.closed {
		in.cond.Wait()
	}
	if len(in.q) == 0 {
		return buf[:0], false
	}
	if in.jitter != nil && len(in.q) > 1 {
		// Perturbed drain: hand over a random FIFO prefix and keep the
		// tail queued, so the consumer interleaves with later arrivals
		// differently on every (seeded) draw. The three-index slice caps
		// the prefix's capacity at k: when the caller recycles it as the
		// next buf, appends past k reallocate instead of clobbering the
		// still-queued tail sharing the backing array.
		if k := 1 + in.jitter.Intn(len(in.q)); k < len(in.q) {
			ms := in.q[:k:k]
			in.q = in.q[k:]
			in.borrowed = k
			in.cond.Signal() // tail still queued: keep the consumer awake
			in.space.Broadcast()
			return ms, true
		}
	}
	ms := in.q
	in.q = buf[:0]
	in.borrowed = len(ms)
	in.space.Broadcast()
	return ms, true
}

// Backlog returns the number of delivered-but-unconsumed messages: the
// queued depth plus the batch the consumer currently holds. PopAll swaps
// the queue out wholesale, so Len alone reads 0 while the consumer is
// still dispatching dozens of popped messages; anything that needs "has
// everything delivered so far been APPLIED" — repair's snapshot cut
// before cloning the page-server replica — must poll Backlog, not Len.
// The count is conservative: a fully dispatched batch keeps counting
// until the consumer's next PopAll call returns it.
func (in *Inbox) Backlog() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.q) + in.borrowed
}

// TryPop returns a private copy of the next message without blocking.
func (in *Inbox) TryPop() (*types.Message, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.q) == 0 {
		return nil, false
	}
	m := in.q[0]
	in.q = in.q[1:]
	in.space.Signal()
	return &m, true
}

// Len returns the number of queued messages.
func (in *Inbox) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.q)
}

// Close marks the inbox closed and wakes blocked readers and writers.
// Queued messages remain poppable until drained only if the owner is
// shutting down cleanly; a crash discards them by dropping the whole
// Inbox.
func (in *Inbox) Close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return
	}
	in.closed = true
	in.q = nil
	in.cond.Broadcast()
	in.space.Broadcast()
}

// Closed reports whether Close has been called.
func (in *Inbox) Closed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.closed
}
