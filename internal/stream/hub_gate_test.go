package stream

import (
	"net"
	"testing"
	"time"

	"odr/internal/obs"
)

// gateTestBandwidth shapes a viewer so that a 48x27 frame (about 5 KB; the
// synthetic game repaints every pixel) takes on the order of 100 ms on the
// wire: far slower than the hub's 60 FPS target, so nearly every render of
// an ungated hub would die in the viewer's latest-wins slot.
const gateTestBandwidth = 48 << 10

// attachThrottled attaches a decoding client whose hub-to-client direction
// is shaped to bw bytes/s over loopback TCP. The returned cleanup stops the
// client and waits for its read loop.
func attachThrottled(t *testing.T, h *Hub, bw float64) (*Client, func()) {
	t.Helper()
	sc, cc := tcpPair(t)
	h.Attach(Throttle(sc, ThrottleConfig{Bandwidth: bw}), 0, nil)
	cli := NewClient(cc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cli.Run() // ends with the connection; the tests assert on counters
	}()
	return cli, func() {
		cli.Stop()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("throttled client did not stop")
		}
	}
}

// renderRate counts the hub's renders over d, in frames per second.
func renderRate(h *Hub, d time.Duration) float64 {
	r0, t0 := h.Rendered(), time.Now()
	time.Sleep(d)
	return float64(h.Rendered()-r0) / time.Since(t0).Seconds()
}

// TestHubGateRendersTrackSlowViewer pins the tentpole: behind a slow path
// the shared renderer renders one frame per frame the viewer can take (plus
// one per input), not TargetFPS.
func TestHubGateRendersTrackSlowViewer(t *testing.T) {
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 60})
	defer stop()
	cli, clean := attachThrottled(t, h, gateTestBandwidth)
	defer clean()
	waitFrames(t, cli, 3, 10*time.Second)

	r0, d0 := h.Rendered(), cli.Report().Frames
	const inputs = 3
	for i := 0; i < inputs; i++ {
		time.Sleep(300 * time.Millisecond)
		if _, err := cli.SendInput(); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	rendered, displayed := h.Rendered()-r0, cli.Report().Frames-d0
	if displayed < 3 {
		t.Fatalf("viewer displayed %d frames in 1.2 s; the path is slower than the test assumes", displayed)
	}
	if rendered > displayed+inputs+2 {
		t.Fatalf("rendered %d frames for %d displayed and %d inputs: the renderer outran its only viewer", rendered, displayed, inputs)
	}
}

// TestHubGatePriorityFrameBypassesGate pins that an input never waits for
// demand: an input that reaches the hub while the renderer is parked on the
// gate (the viewer busy with a ~100 ms send) renders its PriorityFrame
// within a few milliseconds and is echoed.
func TestHubGatePriorityFrameBypassesGate(t *testing.T) {
	tr := obs.NewTracer(1 << 14)
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 60, Trace: tr})
	defer stop()
	cli, clean := attachThrottled(t, h, gateTestBandwidth)
	defer clean()
	waitFrames(t, cli, 3, 10*time.Second)

	const inputs = 5
	for i := 0; i < inputs; i++ {
		time.Sleep(250 * time.Millisecond)
		if _, err := cli.SendInput(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for cli.Report().LatencySamples < inputs && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := cli.Report().LatencySamples; n < inputs {
		t.Fatalf("%d of %d inputs echoed", n, inputs)
	}

	var arrivals, priority []time.Duration
	var gates []obs.Event
	for _, ev := range tr.Events() {
		switch {
		case ev.Track == obs.TrackInput && ev.Name == "input":
			arrivals = append(arrivals, ev.TS)
		case ev.Track == obs.TrackRender && ev.Name == "priority-frame":
			priority = append(priority, ev.TS)
		case ev.Track == obs.TrackRender && ev.Name == "gate":
			gates = append(gates, ev)
		}
	}
	if len(arrivals) != inputs {
		t.Fatalf("traced %d input arrivals, want %d", len(arrivals), inputs)
	}
	parked := 0
	for _, in := range arrivals {
		var rendered time.Duration = -1
		for _, p := range priority {
			if p >= in {
				rendered = p
				break
			}
		}
		if rendered < 0 {
			t.Fatalf("input at %v: no priority frame rendered after it", in)
		}
		// The in-flight send takes ~100 ms; a renderer that waited for it
		// would miss this bound by far, scheduling noise would not.
		if lag := rendered - in; lag > 30*time.Millisecond {
			t.Fatalf("input at %v: priority frame rendered %v later, want a few ms", in, lag)
		}
		for _, g := range gates {
			if g.TS <= in && in <= g.TS+g.Dur+time.Millisecond {
				parked++
				break
			}
		}
	}
	if parked == 0 {
		t.Fatal("no input arrived while the renderer was parked on the gate; the test exercised nothing")
	}
}

// TestHubGateClearPathKeepsTargetFPS pins that a viewer that always has room
// leaves the renderer at TargetFPS: the gate only ever removes renders no
// viewer could take.
func TestHubGateClearPathKeepsTargetFPS(t *testing.T) {
	const fps = 60
	h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: fps})
	defer stop()
	cli, _, clean := attachClient(t, h, 0)
	defer clean()
	waitFrames(t, cli, 10, 10*time.Second)
	if got := renderRate(h, 2*time.Second); got < 0.9*fps || got > 1.1*fps {
		t.Fatalf("clear-path render rate %.1f FPS, want %d ± 10%%", got, fps)
	}
}

// TestHubGateShutdownWhileParked pins that Stop and Drain reach a renderer
// parked on the gate, and that nothing leaks (startHub's leak check).
func TestHubGateShutdownWhileParked(t *testing.T) {
	// parked waits until the renderer has stopped rendering with a viewer
	// attached: a renderer outside the gate renders every ~17 ms at 60 FPS.
	parked := func(t *testing.T, h *Hub) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if r := h.Rendered(); r > 0 {
				time.Sleep(150 * time.Millisecond)
				if h.Rendered() == r {
					return
				}
			} else {
				time.Sleep(10 * time.Millisecond)
			}
		}
		t.Fatal("renderer never parked on the gate")
	}

	t.Run("Stop", func(t *testing.T) {
		h, stop := startHub(t, HubConfig{Width: 32, Height: 18, TargetFPS: 60})
		defer stop()
		// A viewer that never reads: its first frame write blocks, so it
		// never again has room for a frame.
		sc, cc := net.Pipe()
		defer cc.Close()
		stats := make(chan SessionStats, 1)
		h.Attach(sc, 0, func(s SessionStats) { stats <- s })
		parked(t, h)
		done := make(chan struct{})
		go func() {
			h.Stop()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("Stop did not return with the renderer parked on the gate")
		}
		select {
		case <-stats:
		case <-time.After(time.Second):
			t.Fatal("session not detached by Stop")
		}
	})

	t.Run("Drain", func(t *testing.T) {
		h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: 60})
		defer stop()
		cli, clean := attachThrottled(t, h, gateTestBandwidth/4)
		defer clean()
		waitFrames(t, cli, 1, 10*time.Second)
		parked(t, h)
		start := time.Now()
		if err := h.Drain(5 * time.Second); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		if d := time.Since(start); d > 3*time.Second {
			t.Fatalf("Drain took %v with the renderer parked on the gate", d)
		}
	})
}

// TestHubGateDetachReopens pins that the gate follows the attached set:
// with its only (slow) viewer gone, the renderer returns to TargetFPS.
func TestHubGateDetachReopens(t *testing.T) {
	const fps = 60
	h, stop := startHub(t, HubConfig{Width: 48, Height: 27, TargetFPS: fps})
	defer stop()
	cli, clean := attachThrottled(t, h, gateTestBandwidth)
	waitFrames(t, cli, 3, 10*time.Second)
	if got := renderRate(h, time.Second); got > fps/2 {
		clean()
		t.Fatalf("render rate %.1f FPS behind a slow viewer, want well under %d", got, fps)
	}
	clean()
	deadline := time.Now().Add(5 * time.Second)
	for h.Clients() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := h.Clients(); n != 0 {
		t.Fatalf("%d clients still attached after the viewer stopped", n)
	}
	if got := renderRate(h, time.Second); got < 0.9*fps || got > 1.1*fps {
		t.Fatalf("render rate %.1f FPS after the last viewer detached, want %d ± 10%%", got, fps)
	}
}
