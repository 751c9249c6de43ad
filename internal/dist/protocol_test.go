package dist

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// pipePair builds a connected conn pair over an in-memory duplex pipe.
func pipePair() (*conn, *conn) {
	a, b := net.Pipe()
	return newConn(a, 0), newConn(b, 0)
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.close()
	defer b.close()
	cfg := sim.DefaultConfig()
	want := frame{
		Type: frameRunChunk, ID: 9, Benchmark: "ferret", Config: &cfg,
		Scale: 0.5, BaseSeed: 1000, Start: 32, Count: 16,
	}
	go func() {
		if err := a.send(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := b.recv(time.Now().Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.ID != want.ID || got.Benchmark != want.Benchmark ||
		got.Scale != want.Scale || got.BaseSeed != want.BaseSeed ||
		got.Start != want.Start || got.Count != want.Count {
		t.Errorf("round trip mangled frame: %+v", got)
	}
	if got.Config == nil || got.Config.Cores != cfg.Cores || got.Config.L2Size != cfg.L2Size {
		t.Errorf("config did not survive: %+v", got.Config)
	}
}

func TestRecvDeadline(t *testing.T) {
	a, b := pipePair()
	defer a.close()
	defer b.close()
	if _, err := b.recv(time.Now().Add(30 * time.Millisecond)); err == nil {
		t.Error("recv without traffic should trip the deadline")
	}
}

// TestHandshakeVersionMismatch: a hello_ok at any version but
// ProtocolVersion, and a refused hello, are typed HandshakeErrors naming
// the coordinator's version — the error workerLoop does not retry.
func TestHandshakeVersionMismatch(t *testing.T) {
	for _, reply := range []frame{
		{Type: frameHelloOK, Version: ProtocolVersion + 1},
		{Type: frameHelloOK, Version: ProtocolVersion - 1},
		{Type: frameError, Error: "protocol version 4, worker speaks 5"},
	} {
		a, b := pipePair()
		go func() {
			f, err := b.recv(time.Now().Add(2 * time.Second))
			if err != nil || f.Type != frameHello {
				return
			}
			b.send(reply)
		}()
		err := a.handshake(2 * time.Second)
		a.close()
		b.close()
		var he *HandshakeError
		if !errors.As(err, &he) || he.Version != reply.Version || he.Refusal != reply.Error {
			t.Errorf("reply %+v: got %v, want a HandshakeError carrying it", reply, err)
			continue
		}
		if want := fmt.Sprintf("v%d", ProtocolVersion); !strings.Contains(err.Error(), want) {
			t.Errorf("reply %+v: %q does not name the coordinator's %s", reply, err, want)
		}
	}
}

// TestSendWriteDeadlineUnsticksStalledReader is the regression test for
// the stalled-reader wedge: a peer that stops reading used to block
// send inside wmu forever (net.Pipe is unbuffered, so an unread write
// blocks exactly like a zero TCP window). With a write timeout, send
// must fail with a timeout instead.
func TestSendWriteDeadlineUnsticksStalledReader(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := newConn(a, 150*time.Millisecond)
	defer c.close()

	done := make(chan error, 1)
	go func() { done <- c.send(frame{Type: frameHeartbeat}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("send to a reader that never reads should fail")
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("want a timeout error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send blocked despite the write deadline (stalled-reader wedge)")
	}
}

func TestSendWithoutTimeoutStillWorks(t *testing.T) {
	// Zero write timeout must not set any deadline (scripted test
	// conns and raw tooling rely on it).
	a, b := pipePair()
	defer a.close()
	defer b.close()
	go a.send(frame{Type: frameHeartbeat})
	if f, err := b.recv(time.Now().Add(2 * time.Second)); err != nil || f.Type != frameHeartbeat {
		t.Fatalf("recv: %v %+v", err, f)
	}
}

func TestBackoffBoundedAndJittered(t *testing.T) {
	b := newBackoff(10*time.Millisecond, 80*time.Millisecond, 1)
	prevMax := time.Duration(0)
	for i := 0; i < 12; i++ {
		d := b.next()
		if d < 5*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside jittered bounds", i, d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax < 40*time.Millisecond {
		t.Errorf("backoff never grew: max %v", prevMax)
	}
	b.reset()
	if d := b.next(); d > 15*time.Millisecond {
		t.Errorf("reset did not shrink the delay: %v", d)
	}
}

// TestResultBatchColumns pins the columnar batch invariants: add keeps
// the arrays aligned and refuses a metric key-set change without
// mutating the batch, the batch survives the wire in a chunk_done frame,
// and validate rejects ragged peer input.
func TestResultBatchColumns(t *testing.T) {
	b := &ResultBatch{}
	if !b.add(3, map[string]float64{"ipc": 1.5, "mpki": 0.2}, 100, 7) {
		t.Fatal("first add refused")
	}
	if !b.add(4, map[string]float64{"ipc": 1.6, "mpki": 0.3}, 200, 9) {
		t.Fatal("same-key add refused")
	}
	if len(b.Offsets) != 2 || b.Offsets[1] != 4 || b.Cycles[0] != 100 || b.Metrics["ipc"][1] != 1.6 {
		t.Fatalf("batch columns wrong: %+v", b)
	}
	if err := b.validate(); err != nil {
		t.Fatal(err)
	}
	// Key-set change: refused, batch untouched.
	if b.add(5, map[string]float64{"ipc": 1.7}, 300, 11) {
		t.Fatal("key-set change accepted into a non-empty batch")
	}
	if len(b.Offsets) != 2 || len(b.Metrics["ipc"]) != 2 {
		t.Fatalf("refused add mutated the batch: %+v", b)
	}
	// Round-trip through the wire encoding.
	a, p := pipePair()
	defer a.close()
	defer p.close()
	go a.send(frame{Type: frameChunkDone, ID: 9, Batch: b})
	f, err := p.recv(time.Now().Add(2 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if f.Batch == nil || len(f.Batch.Offsets) != 2 || f.Batch.Metrics["mpki"][1] != 0.3 {
		t.Fatalf("batch did not round-trip: %+v", f.Batch)
	}
	// Ragged peer input must be rejected before indexing.
	bad := &ResultBatch{Offsets: []int{1, 2}, Cycles: []uint64{1, 2},
		ElapsedUS: []int64{1, 2}, Metrics: map[string][]float64{"ipc": {1.0}}}
	if err := bad.validate(); err == nil {
		t.Error("ragged batch validated")
	}
}
