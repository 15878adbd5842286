package main

// The hub fan-out benchmark suite: one hub rendering at an uncapped target
// rate serves 1 through 4096 discard-reader viewers, all at full resolution
// so they share a single lane encoder. Each cell reports the encode rate,
// the delivery rate and their quotient sends_per_encode — the fan-out
// amplification the encode-once architecture buys — plus the event-driven
// engine's shape columns: goroutines and heap bytes per session (both must
// stay flat-to-vanishing as viewers grow) and the coalescing ratio (frames
// flushed per sender-worker wakeup).
//
// The emitted BENCH_hub.json reports absolute rates for the machine it ran
// on plus the sends_per_encode ratios; CI regression checking (-hub-check)
// compares only the ratios, which transfer across machines. A regression
// here means the hub fell back toward per-viewer encoding (ratio collapses
// to ~1) or the shared encoder stalled as viewers were added.

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"odr"
)

var hubViewerCounts = []int{1, 4, 16, 64, 256, 1024, 4096}

// hubBenchRes is the shared stream resolution: small enough that 64 pipes
// on a CI box don't bottleneck on memcpy, big enough to make encoding real
// work.
const hubBenchW, hubBenchH = 128, 72

type hubCell struct {
	Viewers        int     `json:"viewers"`
	Seconds        float64 `json:"seconds"`
	Rendered       int64   `json:"frames_rendered"`
	Encoded        int64   `json:"frames_encoded"`
	Sent           int64   `json:"frames_sent"`
	EncodesPerSec  float64 `json:"encodes_per_sec"`
	SendsPerSec    float64 `json:"frames_sent_per_sec"`
	SendsPerEncode float64 `json:"sends_per_encode"`
	// Event-driven engine columns. GoroutinesPerSession is hub goroutines
	// (total minus the harness's one discard reader per viewer, minus the
	// pre-attach baseline) over viewers: ~3.0 for a goroutine-per-session
	// hub, ~pool/viewers for the engine. HeapBytesPerSession is the steady-
	// state heap growth per attached viewer. CoalescingRatio is frames
	// flushed per sender-worker wakeup (Hub.SenderBatchStats): >1 means
	// cross-session batching is amortizing wakeups.
	GoroutinesPerSession float64 `json:"goroutines_per_session"`
	HeapBytesPerSession  float64 `json:"heap_bytes_per_session"`
	CoalescingRatio      float64 `json:"coalescing_ratio"`
}

type hubSuiteReport struct {
	GeneratedAt string    `json:"generated_at"`
	GoVersion   string    `json:"go_version"`
	NumCPU      int       `json:"num_cpu"`
	Width       int       `json:"width"`
	Height      int       `json:"height"`
	CellSeconds string    `json:"measure_per_cell"`
	Cells       []hubCell `json:"cells"`
}

// discardFrames drains a viewer's end of the pipe without decoding: the
// suite measures hub-side encode and fan-out cost, not client decode.
func discardFrames(conn net.Conn, stop <-chan struct{}) {
	buf := make([]byte, 32<<10)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// heapInUse forces a GC and returns live heap bytes; the delta across an
// attach storm, divided by viewers, is the per-session footprint.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// hubCellRun measures one viewer count for roughly measure wall time.
func hubCellRun(viewers int, measure time.Duration) (hubCell, error) {
	metrics := odr.NewMetricsRegistry()
	hub := odr.NewHub(odr.HubConfig{
		Width: hubBenchW, Height: hubBenchH,
		TargetFPS: 100000, // uncapped in practice: encode is the limiter
		Codec:     odr.CodecOptions{QuantShift: 2},
		Metrics:   metrics,
	})
	go hub.Run()

	goroutines0 := runtime.NumGoroutine()
	heap0 := heapInUse()
	stop := make(chan struct{})
	conns := make([]net.Conn, viewers)
	// discards joins this cell's discard readers before it returns, so the
	// next cell's goroutine baseline never counts one still exiting.
	var discards sync.WaitGroup
	for i := 0; i < viewers; i++ {
		hubEnd, clientEnd := net.Pipe()
		conns[i] = clientEnd
		hub.Attach(hubEnd, 0, nil)
		discards.Add(1)
		go func() {
			defer discards.Done()
			discardFrames(clientEnd, stop)
		}()
	}

	counters := func() (rendered, encoded, sent int64) {
		snap := metrics.Snapshot()
		rendered, _ = snap["frames_rendered"].(int64)
		encoded, _ = snap["frames_encoded"].(int64)
		sent, _ = snap["frames_displayed"].(int64)
		return
	}

	time.Sleep(measure / 4) // warm-up: free lists filled, all viewers streaming
	r0, e0, s0 := counters()
	p0, f0 := hub.SenderBatchStats()
	t0 := time.Now()
	time.Sleep(measure)
	r1, e1, s1 := counters()
	p1, f1 := hub.SenderBatchStats()
	elapsed := time.Since(t0).Seconds()

	// Steady-state footprint, read while all viewers are still attached.
	// The harness owns exactly one discard goroutine per viewer; everything
	// else beyond the pre-attach baseline is hub cost.
	hubGoroutines := runtime.NumGoroutine() - goroutines0 - viewers
	heap1 := heapInUse()

	hub.Stop()
	close(stop)
	for _, c := range conns {
		c.Close()
	}
	discards.Wait()

	cell := hubCell{
		Viewers:  viewers,
		Seconds:  elapsed,
		Rendered: r1 - r0,
		Encoded:  e1 - e0,
		Sent:     s1 - s0,
	}
	if cell.Encoded <= 0 || cell.Sent <= 0 {
		return cell, fmt.Errorf("hub cell %d viewers: no progress (encoded %d, sent %d)", viewers, cell.Encoded, cell.Sent)
	}
	cell.EncodesPerSec = float64(cell.Encoded) / elapsed
	cell.SendsPerSec = float64(cell.Sent) / elapsed
	cell.SendsPerEncode = float64(cell.Sent) / float64(cell.Encoded)
	cell.GoroutinesPerSession = float64(hubGoroutines) / float64(viewers)
	if heap1 > heap0 {
		cell.HeapBytesPerSession = float64(heap1-heap0) / float64(viewers)
	}
	if passes := p1 - p0; passes > 0 {
		cell.CoalescingRatio = float64(f1-f0) / float64(passes)
	}
	return cell, nil
}

func hubSuite(measure time.Duration) (*hubSuiteReport, error) {
	rep := &hubSuiteReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Width:       hubBenchW,
		Height:      hubBenchH,
		CellSeconds: measure.String(),
	}
	for _, v := range hubViewerCounts {
		cell, err := hubCellRun(v, measure)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "odrbench: hub %4d viewers: %.0f encodes/s, %.0f sends/s, %.1f sends/encode, %.3f goroutines/sess, %.0f heapB/sess, %.1f frames/flush\n",
			cell.Viewers, cell.EncodesPerSec, cell.SendsPerSec, cell.SendsPerEncode,
			cell.GoroutinesPerSession, cell.HeapBytesPerSession, cell.CoalescingRatio)
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

func writeHubReport(rep *hubSuiteReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkHubRegression re-runs the hub suite and compares each cell's
// sends_per_encode against the committed baseline. The ratio is machine-
// independent: it collapses toward 1 only if the architecture regresses to
// per-viewer encoding or the shared encoder stalls under fan-out.
func checkHubRegression(baselinePath string, measure time.Duration, tolerance float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base hubSuiteReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	baseByViewers := make(map[int]hubCell, len(base.Cells))
	for _, c := range base.Cells {
		baseByViewers[c.Viewers] = c
	}
	cur, err := hubSuite(measure)
	if err != nil {
		return err
	}
	var regressions int
	for _, c := range cur.Cells {
		b, ok := baseByViewers[c.Viewers]
		if !ok || b.SendsPerEncode <= 0 {
			continue
		}
		floor := b.SendsPerEncode * (1 - tolerance)
		verdict := "ok"
		if c.SendsPerEncode < floor {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(os.Stderr, "odrbench: hub %4d viewers: sends/encode %.1f vs baseline %.1f (floor %.1f) %s\n",
			c.Viewers, c.SendsPerEncode, b.SendsPerEncode, floor, verdict)

		// Engine-shape gates, machine-independent by construction.
		// Goroutines per session: the event-driven engine spends O(pool)
		// goroutines total, so per-session cost must vanish at scale; 0.25
		// sits far above any pool/viewers quotient and far below the old
		// shape's 3.0.
		if c.Viewers >= 256 && c.GoroutinesPerSession > 0.25 {
			fmt.Fprintf(os.Stderr, "odrbench: hub %4d viewers: %.3f goroutines/session, want <= 0.25 REGRESSION\n",
				c.Viewers, c.GoroutinesPerSession)
			regressions++
		}
		// A negative count means the baseline included goroutines that
		// exited during the cell: the measurement is broken, not small.
		if c.GoroutinesPerSession < 0 {
			fmt.Fprintf(os.Stderr, "odrbench: hub %4d viewers: %.3f goroutines/session is negative: baseline miscounted REGRESSION\n",
				c.Viewers, c.GoroutinesPerSession)
			regressions++
		}
		// Heap per session tracks struct layout, not CPU speed: gate against
		// the committed baseline with the same fractional tolerance.
		if c.Viewers >= 256 && b.HeapBytesPerSession > 0 &&
			c.HeapBytesPerSession > b.HeapBytesPerSession*(1+tolerance) {
			fmt.Fprintf(os.Stderr, "odrbench: hub %4d viewers: %.0f heap bytes/session vs baseline %.0f REGRESSION\n",
				c.Viewers, c.HeapBytesPerSession, b.HeapBytesPerSession)
			regressions++
		}
		// A coalescing ratio below 1 means the flush accounting broke (every
		// counted pass flushes at least one frame).
		if c.CoalescingRatio != 0 && c.CoalescingRatio < 1 {
			fmt.Fprintf(os.Stderr, "odrbench: hub %4d viewers: coalescing ratio %.2f < 1 REGRESSION\n",
				c.Viewers, c.CoalescingRatio)
			regressions++
		}
	}
	if regressions > 0 {
		return fmt.Errorf("hub fan-out regressed in %d cell(s) vs %s", regressions, baselinePath)
	}
	return nil
}
