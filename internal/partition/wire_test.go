package partition

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/fastmath/pumi-go/internal/pcu"
)

// TestPhaseWireGolden hashes every part-addressed payload each rank is
// delivered, in delivery order, over a fixed run on the mixed mesh with
// and without tag values: the scatter, A -> B -> A, Verify, then the
// residence a checkpoint records, the links cleared and Assemble
// restitching them, and Verify again. The hashes were taken before the
// phase wrote its messages in place and re-pinned once, when a shipment
// record came to name its downward entities by position: the new
// streams, each position rewritten as the gid it names, gave the
// previous hashes. Any change to a byte, a message's order or the set
// of pairs that send fails here.
func TestPhaseWireGolden(t *testing.T) {
	want := map[bool]string{
		false: "cc171fa441acaf26042d23cd0592cbd10f254fc4ccccd3f006dcff9b298ff898",
		true:  "39605ba44215050b229b4d3c59df728a6138178ee65a2ca6300e82c67d78d9f5",
	}
	t.Cleanup(func() { phaseTap = nil })
	for _, tagged := range []bool{false, true} {
		var streams [2]bytes.Buffer // per receiving rank
		phaseTap = func(ph *phase, got []partMsg, _ bool) {
			s := &streams[ph.dm.Ctx.Rank()]
			for _, msg := range got {
				fmt.Fprintf(s, "%d>%d:%d;", msg.From, msg.To, msg.Data.Remaining())
				s.Write(msg.Data.Advance(0))
			}
		}
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			dm := mixedWorld(ctx, tagged)
			for _, dest := range []func(int64) int32{mixedB, mixedA} {
				if err := TryMigrate(dm, plansByGid(dm, dest)); err != nil {
					return err
				}
			}
			if err := Verify(dm); err != nil {
				return err
			}
			dm2, err := reassemble(dm)
			if err != nil {
				return err
			}
			return Verify(dm2)
		})
		if err != nil {
			t.Fatalf("tagged=%v: %v", tagged, err)
		}
		h := sha256.New()
		for r := range streams {
			h.Write(streams[r].Bytes())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[tagged] {
			t.Errorf("tagged=%v: %d + %d delivered bytes hash to %s, want %s",
				tagged, streams[0].Len(), streams[1].Len(), got, want[tagged])
		}
	}
}

// reassemble restitches dm's links the way a checkpoint restore does:
// it records each part's residence as a checkpoint stores it, clears the
// links and calls Assemble.
func reassemble(dm *DMesh) (*DMesh, error) {
	res := make([][]Residence, len(dm.Parts))
	for i, part := range dm.Parts {
		m := part.M
		for d := 0; d <= dm.Dim; d++ {
			for e := range m.Iter(d) {
				if m.NRemotes(e) > 0 {
					res[i] = append(res[i], Residence{E: e, Parts: m.Residence(e).Values()})
				}
			}
		}
		resume := m.SuspendGuard()
		for d := 0; d <= dm.Dim; d++ {
			for e := range m.Iter(d) {
				m.ClearRemotes(e)
			}
		}
		resume()
	}
	return Assemble(dm.Ctx, dm.Model, dm.Dim, dm.K, dm.Parts, res)
}
