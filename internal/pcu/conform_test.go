package pcu

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/fastmath/pumi-go/internal/san"
	"github.com/fastmath/pumi-go/internal/trace"
)

// epochProto is the hand-built automaton for one barrier·exchange epoch
// with a shrink edge looping from the accept state back to the start —
// the machine -emit-automata derives for a supervised body.
func epochProto(t *testing.T) *san.Protocol {
	t.Helper()
	p, err := san.NewProtocol("test.Epoch",
		[]string{"barrier", "exchange", san.OpShrink}, 0,
		[]bool{false, false, true},
		[]map[string]int{
			{"barrier": 1},
			{"exchange": 2},
			{san.OpShrink: 0},
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConformOnlineAccepts(t *testing.T) {
	_, err := RunOpt(4, Options{Conform: epochProto(t)}, func(c *Ctx) error {
		c.Barrier()
		c.Exchange()
		return nil
	})
	if err != nil {
		t.Fatalf("conforming run failed: %v", err)
	}
}

func TestConformOnlineOutOfOrder(t *testing.T) {
	_, err := RunOpt(2, Options{Conform: epochProto(t)}, func(c *Ctx) error {
		//pumi-vet:ignore collseq // deliberate divergence: the monitor must catch it
		if c.Rank() == 0 {
			c.Exchange() // protocol requires barrier first
		}
		c.Barrier()
		c.Exchange()
		return nil
	})
	if !errors.Is(err, san.ErrProtocol) {
		t.Fatalf("err = %v, want protocol violation", err)
	}
	var pe *san.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err %v carries no *san.ProtocolError", err)
	}
	want := &san.ProtocolError{
		Entry: "test.Epoch", Rank: 0, Index: 0, Op: "exchange",
		State: 0, Expected: []string{"barrier"},
	}
	if !reflect.DeepEqual(pe, want) {
		t.Errorf("witness %+v, want %+v", pe, want)
	}
}

func TestConformOnlineEarlyReturn(t *testing.T) {
	// Ranks return success from mid-protocol: Finish must reject.
	_, err := RunOpt(2, Options{Conform: epochProto(t)}, func(c *Ctx) error {
		c.Barrier()
		return nil
	})
	if !errors.Is(err, san.ErrProtocol) {
		t.Fatalf("err = %v, want protocol violation at return", err)
	}
}

// TestConformOfflineReplay runs two traced epochs, extracts each rank's
// op stream from the Chrome export (the second pcu.world marker becomes
// the shrink boundary) and replays it through the automaton.
func TestConformOfflineReplay(t *testing.T) {
	p := epochProto(t)
	col := trace.NewCollector(trace.Config{Ring: 256})
	SetDefaultTrace(col)
	defer SetDefaultTrace(nil)
	for epoch := 0; epoch < 2; epoch++ {
		if _, err := RunOpt(2, Options{}, func(c *Ctx) error {
			c.Barrier()
			c.Exchange()
			return nil
		}); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	var buf bytes.Buffer
	if err := col.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	streams, err := trace.OpStreams(buf.Bytes(), san.RuntimeCollectiveOps, "pcu.world", san.OpShrink)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 2 {
		t.Fatalf("got streams for %d ranks, want 2: %v", len(streams), streams)
	}
	for rank, ops := range streams {
		want := []string{"barrier", "exchange", san.OpShrink, "barrier", "exchange"}
		if !reflect.DeepEqual(ops, want) {
			t.Errorf("rank %d stream %v, want %v", rank, ops, want)
		}
		res := san.Replay(p, rank, ops)
		if res.Err != nil || !res.Accepted || res.Resets != 0 {
			t.Errorf("rank %d replay: %+v", rank, res)
		}
	}
}

// TestConformWitnessesMatch checks the tentpole invariant: an injected
// out-of-order collective is caught online and offline with the same
// witness.
func TestConformWitnessesMatch(t *testing.T) {
	p := epochProto(t)
	col := trace.NewCollector(trace.Config{Ring: 256})
	SetDefaultTrace(col)
	defer SetDefaultTrace(nil)
	_, err := RunOpt(2, Options{Conform: p}, func(c *Ctx) error {
		//pumi-vet:ignore collseq // deliberate divergence: both checkers must catch it
		if c.Rank() == 0 {
			c.Exchange()
		}
		c.Barrier()
		c.Exchange()
		return nil
	})
	var online *san.ProtocolError
	if !errors.As(err, &online) {
		t.Fatalf("online run: %v, want protocol violation", err)
	}
	var buf bytes.Buffer
	if err := col.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	streams, err := trace.OpStreams(buf.Bytes(), san.RuntimeCollectiveOps, "pcu.world", san.OpShrink)
	if err != nil {
		t.Fatal(err)
	}
	res := san.Replay(p, online.Rank, streams[online.Rank])
	var offline *san.ProtocolError
	if !errors.As(res.Err, &offline) {
		t.Fatalf("offline replay of rank %d: %+v, want protocol violation", online.Rank, res)
	}
	if !reflect.DeepEqual(online, offline) {
		t.Errorf("witnesses diverge:\n online  %+v\n offline %+v", online, offline)
	}
}
