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
// phase wrote its messages in place, so any change to a byte, a
// message's order or the set of pairs that send fails here.
func TestPhaseWireGolden(t *testing.T) {
	want := map[bool]string{
		false: "03a6fcad8474f993afba75587139a464a38cb1174216365c0db3b82c5674e862",
		true:  "4b3c4a48a368776746db9bbf7db51c74985e51bee2be77f45333208814d5d286",
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
