package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// heapSampler records the peak of the live heap: the bytes the latest GC
// marked reachable, which garbage awaiting collection does not inflate. It reads
// runtime/metrics, which does not stop the world as ReadMemStats does.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak atomic.Uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak in MiB since the previous take and starts anew.
func (h *heapSampler) take() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

func (h *heapSampler) stopSampling() {
	close(h.stop)
	h.done.Wait()
}
