package kernel

import (
	"bytes"
	"testing"

	"auragen/internal/bus"
	"auragen/internal/directory"
	"auragen/internal/guest"
	"auragen/internal/memory"
	"auragen/internal/trace"
	"auragen/internal/types"
	"auragen/internal/wire"
)

// TestTransmitLeavesNoStalePointers drives the transmit loop's two steps
// by hand: once a drained batch is transmitted, neither the outgoing
// queue's backing array nor the recycled batch slice references a sent
// message. Either alias would keep a 16 KiB payload, or the COW-frozen
// pages a PageOut captured, reachable until the slot is next overwritten.
func TestTransmitLeavesNoStalePointers(t *testing.T) {
	m := &trace.Metrics{}
	b := bus.New(m, nil)
	peer := b.Attach(1)
	k := New(Config{ID: 0, Bus: b, Dir: directory.New(), Registry: guest.NewRegistry(), Metrics: m, MaxBatch: 2})
	route := types.Route{Dst: 1, DstBackup: types.NoCluster, SrcBackup: types.NoCluster}
	page := []byte("frozen page")
	k.mu.Lock()
	k.outgoing = make([]*types.Message, 0, 3)
	backing := k.outgoing[:3]
	k.sendLocked(&types.Message{Kind: types.KindData, Dst: 2, Route: route, Payload: make([]byte, 16<<10)})
	k.sendLocked(&types.Message{Kind: types.KindPageOut, Route: route,
		Lazy: &PageOut{PID: 2, Epoch: 1, Pages: []memory.Page{{No: 4, Data: page}}}})
	k.sendLocked(&types.Message{Kind: types.KindData, Dst: 2, Route: route, Payload: []byte("tail")})
	k.mu.Unlock()

	var batch []*types.Message
	for sent := 0; sent < 3; {
		var ok bool
		if batch, ok = k.takeOutgoing(batch); !ok {
			t.Fatal("transmit loop stopped")
		}
		sent += len(batch)
		if err := k.transmitDrained(batch); err != nil {
			t.Fatal(err)
		}
		for i, m := range batch[:cap(batch)] {
			if m != nil {
				t.Fatalf("recycled batch slot %d still references a sent %v message", i, m.Kind)
			}
		}
		// Reuse the pool right away: the resolved PageOut must not
		// alias a pooled buffer.
		w := wire.GetWriter()
		w.Bytes32(bytes.Repeat([]byte{0xFF}, 64))
		wire.PutWriter(w)
	}
	k.mu.Lock()
	for i, m := range backing {
		if m != nil {
			t.Fatalf("outgoing backing slot %d still references a sent %v message", i, m.Kind)
		}
	}
	k.mu.Unlock()

	ms, _ := peer.PopAll(nil)
	if len(ms) != 3 {
		t.Fatalf("delivered %d messages, want 3", len(ms))
	}
	po, err := DecodePageOut(ms[1].Payload)
	if err != nil || len(po.Pages) != 1 || !bytes.Equal(po.Pages[0].Data, page) {
		t.Fatalf("lazy page-out arrived as %+v, err %v", po, err)
	}
	k.Stop()
}
