package disk

import (
	"bytes"
	"errors"
	"testing"

	"auragen/internal/types"
)

func TestAllocWriteRead(t *testing.T) {
	d := New("t", 512, 0, 1)
	id, err := d.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, id, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// The other port reads the same block (dual-ported).
	got, err := d.Read(1, id)
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("read from second port: %q %v", got, err)
	}
}

func TestUnattachedClusterRejected(t *testing.T) {
	d := New("t", 512, 0, 1)
	if _, err := d.Alloc(5); !errors.Is(err, types.ErrNoCluster) {
		t.Fatalf("alloc from unattached: %v", err)
	}
	if err := d.Write(5, 1, nil); !errors.Is(err, types.ErrNoCluster) {
		t.Fatalf("write from unattached: %v", err)
	}
	if _, err := d.Read(5, 1); !errors.Is(err, types.ErrNoCluster) {
		t.Fatalf("read from unattached: %v", err)
	}
}

func TestOversizeWriteRejected(t *testing.T) {
	d := New("t", 4, 0, 1)
	id, _ := d.Alloc(0)
	if err := d.Write(0, id, []byte("12345")); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestMirrorFailureTolerated(t *testing.T) {
	d := New("t", 512, 0, 1)
	id, _ := d.Alloc(0)
	if err := d.Write(0, id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.FailMirror(0); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(0, id)
	if err != nil || string(got) != "x" {
		t.Fatalf("read after mirror failure: %q %v", got, err)
	}
	// Writes during degraded operation land on the survivor.
	id2, _ := d.Alloc(0)
	if err := d.Write(0, id2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	// Both mirrors down: untolerated.
	if err := d.FailMirror(1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(0, id); !errors.Is(err, types.ErrTooManyFailures) {
		t.Fatalf("double mirror failure: %v", err)
	}
}

func TestRepairResilvers(t *testing.T) {
	d := New("t", 512, 0, 1)
	id, _ := d.Alloc(0)
	d.Write(0, id, []byte("before"))
	d.FailMirror(0)
	id2, _ := d.Alloc(0)
	d.Write(0, id2, []byte("during")) // missed by mirror 0
	if err := d.Resilver(0); err != nil {
		t.Fatal(err)
	}
	d.FailMirror(1) // now mirror 0 must serve everything
	got, err := d.Read(0, id2)
	if err != nil || string(got) != "during" {
		t.Fatalf("resilvered mirror missing block: %q %v", got, err)
	}
}

// TestResilverRestoresBlockIdentity drives the full storage-repair cycle:
// fail one mirror, mutate the surviving copy (writes, an overwrite, a free),
// resilver, and require block-for-block identity — then prove the restored
// redundancy is real by serving every block with each mirror failed in turn.
func TestResilverRestoresBlockIdentity(t *testing.T) {
	d := New("t", 512, 0, 1)
	var ids []BlockID
	for i := 0; i < 8; i++ {
		id, err := d.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, id, []byte{byte(i), byte(i >> 4)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if !d.MirrorsEqual() {
		t.Fatal("mirrors differ before any failure")
	}

	if err := d.FailMirror(1); err != nil {
		t.Fatal(err)
	}
	if d.MirrorsEqual() {
		t.Fatal("MirrorsEqual with a failed mirror")
	}
	// Degraded-window mutations the dead mirror misses entirely: fresh
	// blocks, an overwrite of an old one, and a free.
	for i := 8; i < 12; i++ {
		id, _ := d.Alloc(1)
		if err := d.Write(1, id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := d.Write(0, ids[2], []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(0, ids[5]); err != nil {
		t.Fatal(err)
	}
	ids = append(ids[:5], ids[6:]...)

	if err := d.Resilver(1); err != nil {
		t.Fatal(err)
	}
	if got := d.FailedMirrors(); len(got) != 0 {
		t.Fatalf("FailedMirrors after resilver = %v", got)
	}
	if !d.MirrorsEqual() {
		t.Fatal("mirrors not block-for-block identical after resilver")
	}

	// Either mirror alone must now serve every surviving block: the freshly
	// resilvered copy first, then the original survivor.
	readAll := func(stage string) {
		t.Helper()
		for _, id := range ids {
			want := []byte("rewritten")
			if id != ids[2] {
				want = nil // content checked only for the overwrite
			}
			got, err := d.Read(1, id)
			if err != nil {
				t.Fatalf("%s: read block %d: %v", stage, id, err)
			}
			if want != nil && !bytes.Equal(got, want) {
				t.Fatalf("%s: block %d = %q, want %q", stage, id, got, want)
			}
		}
	}
	if err := d.FailMirror(0); err != nil {
		t.Fatal(err)
	}
	readAll("survivor=resilvered mirror 1")
	if err := d.Resilver(0); err != nil {
		t.Fatal(err)
	}
	if err := d.FailMirror(1); err != nil {
		t.Fatal(err)
	}
	readAll("survivor=mirror 0")
	if err := d.Resilver(1); err != nil {
		t.Fatal(err)
	}
	if !d.MirrorsEqual() {
		t.Fatal("mirrors diverged across alternating failures")
	}
}

func TestRepairWithoutHealthySource(t *testing.T) {
	d := New("t", 512, 0, 1)
	d.FailMirror(0)
	d.FailMirror(1)
	if err := d.Resilver(0); !errors.Is(err, types.ErrTooManyFailures) {
		t.Fatalf("repair with no source: %v", err)
	}
}

func TestFreeAndBlocks(t *testing.T) {
	d := New("t", 512, 0, 1)
	id, _ := d.Alloc(0)
	d.Write(0, id, []byte("x"))
	if d.Blocks() != 1 {
		t.Fatalf("blocks = %d", d.Blocks())
	}
	if err := d.Free(1, id); err != nil {
		t.Fatal(err)
	}
	if d.Blocks() != 0 {
		t.Fatalf("blocks after free = %d", d.Blocks())
	}
	if _, err := d.Read(0, id); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("read freed block: %v", err)
	}
	// Freeing again is a no-op.
	if err := d.Free(0, id); err != nil {
		t.Fatal(err)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := New("t", 512, 0, 1)
	id, _ := d.Alloc(0)
	d.Write(0, id, []byte{1, 2, 3})
	got, _ := d.Read(0, id)
	got[0] = 99
	again, _ := d.Read(0, id)
	if again[0] != 1 {
		t.Fatal("Read aliases stored block")
	}
}

// TestWriteTakesOneCopy: Write keeps a private copy, so the caller may
// reuse its buffer, and both mirrors share that copy: one allocation per
// write, not one per mirror.
func TestWriteTakesOneCopy(t *testing.T) {
	d := New("t", 512, 0, 1)
	id, _ := d.Alloc(0)
	buf := []byte{1, 2, 3}
	if err := d.Write(0, id, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	if got, _ := d.Read(1, id); got[0] != 1 {
		t.Fatal("Write aliases the caller's buffer")
	}
	if !d.MirrorsEqual() {
		t.Fatal("mirrors differ after a write")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = d.Write(0, id, buf) }); allocs != 1 {
		t.Fatalf("Write allocated %.0f objects, want 1", allocs)
	}
}

func TestStatsAndRange(t *testing.T) {
	d := New("t", 512, 0, 1)
	id, _ := d.Alloc(0)
	d.Write(0, id, []byte("x"))
	d.Read(0, id)
	r, w := d.Stats()
	if r != 1 || w != 1 {
		t.Fatalf("stats = %d/%d", r, w)
	}
	if err := d.FailMirror(9); err == nil {
		t.Fatal("FailMirror out of range accepted")
	}
	if err := d.Resilver(-1); err == nil {
		t.Fatal("Resilver out of range accepted")
	}
	if !d.AttachedTo(0) || !d.AttachedTo(1) || d.AttachedTo(2) {
		t.Fatal("attachment wrong")
	}
	if d.Name() != "t" || d.BlockSize() != 512 {
		t.Fatal("metadata wrong")
	}
}
