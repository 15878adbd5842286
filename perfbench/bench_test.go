package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the self-test checks against.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// checkEmitted fails the test unless every wanted metric is present, finite
// and carries its declared unit.
func checkEmitted(t *testing.T, got metrics, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v, not finite", name, m.Value)
		case m.Unit == "" || m.Unit != unit:
			t.Errorf("%s has unit %q, declared %q", name, m.Unit, unit)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every declared workload, and the
// ungated lan-hub (the only one that runs the encode-once pixel check),
// briefly, untraced and traced, and checks that each declared metric is
// emitted, finite and in its declared unit, and that the run's output
// checks pass.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := loadDeclared(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
	for name := range layerUnits {
		if _, ok := layer[name]; !ok {
			t.Errorf("program reports %s, BENCHMARK.json does not declare it", name)
		}
	}
	names := []string{"lan-hub"}
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			t.Errorf("BENCHMARK.json names workload %s, the program has no such workload", name)
			continue
		}
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, window: 2 * time.Second, traced: traced, traceDir: t.TempDir()}
			out := run(cfg)
			for _, p := range out.problems {
				t.Errorf("%s traced=%v: %s", name, traced, p)
			}
			if out.attempted < 1 {
				t.Errorf("%s traced=%v: no operation attempted", name, traced)
			}
			if traced {
				fillLayers(out)
				checkEmitted(t, out.layer, layer)
			} else {
				checkEmitted(t, out.e2e, e2e)
			}
		}
	}
}

// TestTeeParsesSplitMessages feeds one frame message to the tee in every
// split a socket could deliver it in.
func TestTeeParsesSplitMessages(t *testing.T) {
	msg := make([]byte, msgHeaderLen+frameHeaderLen+7)
	msg[0] = msgFrame
	msg[1] = frameHeaderLen + 7
	msg[msgHeaderLen] = 42     // seq
	msg[msgHeaderLen+16] = 9   // input id, local part
	msg[msgHeaderLen+16+4] = 3 // input id, session part
	bye := []byte{3, 0, 0, 0, 0}
	stream := append(append([]byte(nil), msg...), bye...)
	for cut := 1; cut < len(stream); cut++ {
		var tee teeConn
		now := time.Now()
		tee.feed(stream[:cut], now)
		tee.feed(stream[cut:], now)
		if len(tee.frames) != 1 {
			t.Fatalf("cut %d: parsed %d frames", cut, len(tee.frames))
		}
		f := tee.frames[0]
		if f.seq != 42 || f.echoLocal() != 9 || f.echo>>32 != 3 || f.bytes != frameHeaderLen+7 {
			t.Fatalf("cut %d: parsed %+v", cut, f)
		}
		if tee.hdrN != 0 {
			t.Fatalf("cut %d: tee not at a message boundary after the bye", cut)
		}
	}
}

// TestAnswersCreditCoalescedInputs pins the answer rule: a displayed frame
// echoing input N answers N and the later inputs it consumed with N (sent
// before it finished rendering), a later echo answers everything before
// it, and an input nothing displayed answers fails.
func TestAnswersCreditCoalescedInputs(t *testing.T) {
	epoch := time.Unix(100, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	v := &viewer{tee: &teeConn{}}
	v.inputs = []inputRec{
		{id: 1, due: at(0), sent: at(0)},
		{id: 2, due: at(1), sent: at(1)},   // coalesced with 1 into frame 10
		{id: 3, due: at(30), sent: at(30)}, // after frame 10 rendered: answered by frame 12's echo of 4
		{id: 4, due: at(31), sent: at(31)},
		{id: 5, due: at(90), sent: at(90)}, // never answered
	}
	v.tee.frames = []frameRec{
		{seq: 10, echo: 1<<32 | 1, renderNs: int64(5 * time.Millisecond), shown: at(12)},
		{seq: 11, shown: at(28)},
		{seq: 12, echo: 1<<32 | 4, renderNs: int64(40 * time.Millisecond), shown: at(45)},
	}
	want := []int{12, 12, 45, 45, -1}
	for k, a := range v.answers(epoch, at(1000)) {
		got := -1
		if a.frame != nil {
			got = int(a.frame.shown.Sub(epoch) / time.Millisecond)
		}
		if got != want[k] {
			t.Errorf("input %d answered at %d ms, want %d", a.in.id, got, want[k])
		}
	}
}
