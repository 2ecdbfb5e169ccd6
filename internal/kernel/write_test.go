package kernel_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"auragen/internal/core"
	"auragen/internal/guest"
	"auragen/internal/ttyserver"
	"auragen/internal/types"
)

// TestWriteCopiesGuestBuffer: Write takes the one private copy of a
// payload, and the bus and every receiver share that copy. A guest that
// reuses its buffer the moment Write returns must not change what the
// destination receives. Under -race, any path that still reads the guest's
// buffer after Write returns is also reported as a data race.
func TestWriteCopiesGuestBuffer(t *testing.T) {
	const sends, size = 64, 4096
	reg := guest.NewRegistry()
	reg.Register("copy-sink", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				if _, err := p.Open("chan:copy"); err != nil {
					return err
				}
				tty, err := p.Open("tty:1")
				st.PutInt64("tty", int64(tty))
				return err
			},
			OnMessageFunc: func(p guest.API, st *guest.State, fd types.FD, data []byte) error {
				if int64(fd) == st.GetInt64("tty") {
					return nil
				}
				i := st.Add("got", 1) - 1
				report := ""
				if !bytes.Equal(data, bytes.Repeat([]byte{byte(i)}, size)) {
					report = fmt.Sprintf("copies=bad at send %d", i)
				} else if i+1 == sends {
					report = "copies=ok"
				}
				if report == "" {
					return nil
				}
				st.Exit()
				return p.Write(types.FD(st.GetInt64("tty")), ttyserver.WriteReq(report))
			},
		}
	}))
	reg.Register("copy-source", guest.ReactorFactory(func() guest.Handler {
		return guest.HandlerFuncs{
			StartFunc: func(p guest.API, st *guest.State) error {
				fd, err := p.Open("chan:copy")
				if err != nil {
					return err
				}
				buf := make([]byte, size)
				for i := 0; i < sends; i++ {
					for j := range buf {
						buf[j] = byte(i)
					}
					if err := p.Write(fd, buf); err != nil {
						return err
					}
					for j := range buf { // reuse at once, as a guest may
						buf[j] = 0xFF
					}
				}
				st.Exit()
				return nil
			},
		}
	}))
	sys, err := core.New(core.Options{Clusters: 3}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	// Three-way routes: the sink's backup and the source's backup receive
	// the same shared payload as the sink itself.
	if _, err := sys.Spawn("copy-sink", nil, core.SpawnConfig{Cluster: 1, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("copy-source", nil, core.SpawnConfig{Cluster: 2, BackupCluster: 0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range sys.TerminalOutput(1) {
			if strings.HasPrefix(line, "copies=") {
				if line != "copies=ok" {
					t.Fatal(line)
				}
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sink never reported; terminal 1: %v", sys.TerminalOutput(1))
}
