package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"odr"
	"odr/internal/obs"
)

// Wire layout read by the tee, as documented in internal/stream/proto.go:
// every message is type(1) len(4) payload; a frame payload starts with
// seq(8) parentSeq(8) inputID(8) inputNanos(8) renderNanos(8) crc32(4).
const (
	msgHeaderLen   = 5
	msgFrame       = 1
	frameHeaderLen = 44
)

// frameRec is one frame message as it arrived at a viewer.
type frameRec struct {
	seq uint64
	// echo is the input id the frame answers as the server sent it (the
	// hub packs its session id into the high 32 bits); 0 when none.
	echo uint64
	// renderNs is the frame's render end on the serving side's clock.
	renderNs int64
	// bytes is the frame message payload: header plus bitstream.
	bytes   int
	arrived time.Time
	// shown is when the client displayed the frame (zero if it skipped it).
	shown time.Time
}

func (f *frameRec) echoLocal() uint64 { return f.echo & 0xFFFFFFFF }

// teeConn is a read-side tee on a viewer's connection: it parses the
// message framing of the bytes the client reads and records every frame's
// header and arrival time. Only the client's receive goroutine calls Read.
type teeConn struct {
	net.Conn
	hdr    [msgHeaderLen]byte
	hdrN   int
	meta   [frameHeaderLen]byte
	metaN  int
	left   int
	frames []frameRec
}

func (t *teeConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.feed(p[:n], time.Now())
	}
	return n, err
}

func (t *teeConn) feed(b []byte, now time.Time) {
	for len(b) > 0 {
		if t.hdrN < msgHeaderLen {
			c := copy(t.hdr[t.hdrN:], b)
			t.hdrN += c
			b = b[c:]
			if t.hdrN < msgHeaderLen {
				return
			}
			t.left = int(binary.LittleEndian.Uint32(t.hdr[1:]))
			t.metaN = 0
			if t.left == 0 {
				t.complete(now)
			}
			continue
		}
		c := min(len(b), t.left)
		if t.hdr[0] == msgFrame && t.metaN < frameHeaderLen {
			t.metaN += copy(t.meta[t.metaN:], b[:c])
		}
		t.left -= c
		b = b[c:]
		if t.left == 0 {
			t.complete(now)
		}
	}
}

func (t *teeConn) complete(now time.Time) {
	if t.hdr[0] == msgFrame && t.metaN == frameHeaderLen {
		t.frames = append(t.frames, frameRec{
			seq:      binary.LittleEndian.Uint64(t.meta[0:]),
			echo:     binary.LittleEndian.Uint64(t.meta[16:]),
			renderNs: int64(binary.LittleEndian.Uint64(t.meta[32:])),
			bytes:    int(binary.LittleEndian.Uint32(t.hdr[1:])),
			arrived:  now,
		})
	}
	t.hdrN = 0
}

// inputRec is one generated input.
type inputRec struct {
	id        uint64 // as returned by SendInput
	due, sent time.Time
}

// pixSeed hashes displayed pixels; one seed for every viewer, so equal
// pixels hash equal across viewers.
var pixSeed = maphash.MakeSeed()

// serving is what a viewer knows of the side that serves it: the tracer
// its spans go to (nil when untraced) and the bracket around the epoch the
// serving side's clock counts from, which is taken inside its constructor.
type serving struct {
	tr             *odr.Tracer
	epoch, epochHi time.Time
}

// at converts a wall-clock time to the serving side's clock.
func (s serving) at(t time.Time) time.Duration { return t.Sub(s.epoch) }

// viewer is one measuring client: a StreamClient reading through a tee.
type viewer struct {
	cli   *odr.StreamClient
	tee   *teeConn
	side  serving
	first chan struct{}

	displayed atomic.Int64
	// maxEcho is the highest client-local input id a displayed frame
	// carried; the drain wait polls it.
	maxEcho atomic.Uint64

	// Owned by the client's receive goroutine until the client has stopped.
	hashes   map[uint64]uint64 // seq -> pixel hash (pixel check only)
	frameErr string
	shown    bool

	// Owned by the input generator until it has returned.
	inputs []inputRec
	genErr error

	runErr error // Client.Run's result
}

// newViewer wraps conn in a tee and a client; frames sizes its records.
func newViewer(conn net.Conn, hashPixels bool, side serving, frames int) *viewer {
	v := &viewer{tee: &teeConn{Conn: conn, frames: make([]frameRec, 0, frames)}, side: side, first: make(chan struct{})}
	if hashPixels {
		v.hashes = make(map[uint64]uint64, frames)
	}
	v.cli = odr.NewStreamClient(v.tee)
	v.cli.OnFrame(func(seq uint64, pix []byte) {
		now := time.Now()
		n := len(v.tee.frames)
		if n == 0 || v.tee.frames[n-1].seq != seq {
			if v.frameErr == "" {
				v.frameErr = fmt.Sprintf("displayed seq %d is not the last frame the tee parsed", seq)
			}
			return
		}
		f := &v.tee.frames[n-1]
		f.shown = now
		if v.hashes != nil {
			v.hashes[seq] = maphash.Bytes(pixSeed, pix)
		}
		if e := f.echoLocal(); e > v.maxEcho.Load() {
			v.maxEcho.Store(e)
		}
		v.displayed.Add(1)
		// The benchmark's own span: frame bytes in -> displayed.
		side.tr.Span(obs.TrackClient, "recv-to-display", seq, side.at(f.arrived), side.at(now))
		if !v.shown {
			v.shown = true
			close(v.first)
		}
	})
	return v
}

// generate sends one input at each due time (open loop: a late send does
// not delay the schedule of the ones after it).
func (v *viewer) generate(start time.Time, offsets []time.Duration) {
	for _, off := range offsets {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		id, err := v.cli.SendInput()
		if err != nil {
			v.genErr = err
			return
		}
		v.inputs = append(v.inputs, inputRec{id: id, due: due, sent: sent})
	}
}

// poisson returns the due offsets of a Poisson input process at rate per
// second over window.
func poisson(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= window {
			return out
		}
		out = append(out, off)
	}
}

// answer is when a displayed frame first answered one input.
type answer struct {
	in    inputRec
	frame *frameRec // nil when no displayed frame answered it in time
}

// answers resolves every generated input against the frames the viewer
// received. A displayed frame carrying input id N answers every earlier
// input. The server echoes only the oldest input of those a frame consumed,
// so the inputs after N up to the next echoed id, sent before N's frame had
// finished rendering, were consumed by that same frame; they are answered
// when it is displayed. Frames displayed after deadline answer nothing.
// epochHi bounds the serving side's clock epoch from above.
func (v *viewer) answers(epochHi, deadline time.Time) []answer {
	var echoes []*frameRec // received frames that echo an input, by id
	var shownEchoes []*frameRec
	for i := range v.tee.frames {
		f := &v.tee.frames[i]
		if f.echo == 0 {
			continue
		}
		echoes = append(echoes, f)
		if !f.shown.IsZero() && !f.shown.After(deadline) {
			shownEchoes = append(shownEchoes, f)
		}
	}
	sort.SliceStable(echoes, func(i, j int) bool { return echoes[i].echoLocal() < echoes[j].echoLocal() })
	sort.SliceStable(shownEchoes, func(i, j int) bool { return shownEchoes[i].echoLocal() < shownEchoes[j].echoLocal() })
	out := make([]answer, len(v.inputs))
	for k, in := range v.inputs {
		out[k].in = in
		// The first displayed frame echoing this input or a later one.
		// Echoed ids grow with arrival order, so it is the earliest.
		if j := sort.Search(len(shownEchoes), func(i int) bool { return shownEchoes[i].echoLocal() >= in.id }); j < len(shownEchoes) {
			out[k].frame = shownEchoes[j]
		}
		// The frame whose echo heads this input's run, if it consumed it.
		h := sort.Search(len(echoes), func(i int) bool { return echoes[i].echoLocal() > in.id }) - 1
		if h < 0 {
			continue
		}
		head := echoes[h]
		renderEnd := epochHi.Add(time.Duration(head.renderNs))
		if head.shown.IsZero() || head.shown.After(deadline) || in.sent.After(renderEnd) {
			continue
		}
		if out[k].frame == nil || head.shown.Before(out[k].frame.shown) {
			out[k].frame = head
		}
	}
	return out
}

// sessionBits returns the high 32 bits the server packs into echoed input
// ids for this viewer (0 for the per-connection server).
func (v *viewer) sessionBits() uint64 {
	for _, f := range v.tee.frames {
		if f.echo != 0 {
			return f.echo &^ 0xFFFFFFFF
		}
	}
	return 0
}

// clientAgreement checks the tee against the client's own report: the
// client takes one latency sample per displayed frame that echoes an input,
// from that input's send stamp to display.
func (v *viewer) clientAgreement(sentAt map[uint64]time.Time) error {
	rep := v.cli.Report()
	var n int
	var sum float64
	for _, f := range v.tee.frames {
		if f.echo == 0 || f.shown.IsZero() {
			continue
		}
		sent, ok := sentAt[f.echoLocal()]
		if !ok {
			return fmt.Errorf("frame %d echoes input %d that was never sent", f.seq, f.echoLocal())
		}
		n++
		sum += ms(f.shown.Sub(sent))
	}
	if n != rep.LatencySamples {
		return fmt.Errorf("tee saw %d displayed answers, client reports %d latency samples", n, rep.LatencySamples)
	}
	if n == 0 {
		return nil
	}
	// The tee's ends lie outside the client's: it stamps a send just before
	// SendInput does, and a display once the client has finished its own
	// bookkeeping for the frame (which a preemption can stretch). A frame
	// paired with the wrong input would be off by a whole input gap.
	teeMean := sum / float64(n)
	if d := teeMean - rep.MeanLatency; d < -0.1 || d > 2+0.05*rep.MeanLatency {
		return fmt.Errorf("tee mean MtP %.3f ms, client reports %.3f ms", teeMean, rep.MeanLatency)
	}
	return nil
}

// pixelsAgree checks that viewers display byte-identical pixels for every
// seq they both displayed, and returns how many seqs were compared.
func pixelsAgree(vs []*viewer) (int, error) {
	compared := 0
	for i := 1; i < len(vs); i++ {
		for seq, h := range vs[0].hashes {
			if g, ok := vs[i].hashes[seq]; ok {
				compared++
				if g != h {
					return compared, fmt.Errorf("viewers 0 and %d displayed different pixels for seq %d", i, seq)
				}
			}
		}
	}
	return compared, nil
}
