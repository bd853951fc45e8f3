package partition_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

const distRanks = 3

var distModel = gmi.Box(4, 1, 1)

// distInput is rank 0's side of a distribution: a small box and its RCB
// assignment to nparts parts. Other ranks get nothing.
func distInput(ctx *pcu.Ctx, nparts int) (*mesh.Mesh, []int32) {
	if ctx.Rank() != 0 {
		return nil, nil
	}
	serial := meshgen.Box3D(distModel, 6, 2, 2)
	in, _ := zpart.Centroids(serial)
	return serial, zpart.RCB(in, nparts)
}

// partImage is everything a part shows of itself: its mesh file and, per
// entity in iteration order, global id and owner.
type partImage struct {
	file []byte
	ids  []int64
}

func imageOf(p *partition.Part) (partImage, error) {
	var img partImage
	var buf bytes.Buffer
	if err := meshio.Write(&buf, p.M); err != nil {
		return img, err
	}
	img.file = buf.Bytes()
	for d := 0; d <= p.M.Dim(); d++ {
		for e := range p.M.Iter(d) {
			img.ids = append(img.ids, p.Gid(e), int64(p.M.Owner(e)))
		}
	}
	return img, nil
}

// TestDistributeMatchesHandRolled: Distribute gives the parts, and runs
// the schedule, of the Adopt + PlansFromAssignment + TryMigrate sequence
// it replaced at every call site — kept here as the reference.
func TestDistributeMatchesHandRolled(t *testing.T) {
	handRolled := func(ctx *pcu.Ctx, k int) (*partition.DMesh, error) {
		serial, assign := distInput(ctx, distRanks*k)
		dm := partition.Adopt(ctx, distModel.Model, 3, serial, k)
		var plan map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			plan = map[mesh.Ent]int32{}
			i := 0
			for el := range serial.Elements() {
				plan[el] = assign[i]
				i++
			}
		}
		return dm, partition.TryMigrate(dm, partition.PlansFromAssignment(dm, plan))
	}
	distribute := func(ctx *pcu.Ctx, k int) (*partition.DMesh, error) {
		serial, assign := distInput(ctx, distRanks*k)
		return partition.Distribute(ctx, distModel.Model, 3, serial, assign, k)
	}
	for _, k := range []int{1, 2} {
		var images [2][]partImage
		var ops [2][distRanks]int64
		for side, build := range []func(*pcu.Ctx, int) (*partition.DMesh, error){handRolled, distribute} {
			images[side] = make([]partImage, distRanks*k)
			err := pcu.Run(distRanks, func(ctx *pcu.Ctx) error {
				dm, err := build(ctx, k)
				if err != nil {
					return err
				}
				ops[side][ctx.Rank()] = ctx.Ops()
				for _, p := range dm.Parts {
					img, err := imageOf(p)
					if err != nil {
						return err
					}
					images[side][p.M.Part()] = img
				}
				return partition.Verify(dm)
			})
			if err != nil {
				t.Fatalf("k=%d side %d: %v", k, side, err)
			}
		}
		if ops[0] != ops[1] {
			t.Errorf("k=%d: blocking ops per rank: hand-rolled %v, Distribute %v", k, ops[0], ops[1])
		}
		for part := range images[0] {
			want, got := images[0][part], images[1][part]
			if len(want.ids) == 0 {
				t.Errorf("k=%d: part %d is empty", k, part)
			}
			if !slices.Equal(got.ids, want.ids) {
				t.Errorf("k=%d: part %d: global ids or owners differ", k, part)
			}
			if !bytes.Equal(got.file, want.file) {
				t.Errorf("k=%d: part %d: mesh file differs", k, part)
			}
		}
	}
}

// TestDistributeRejectsBadAssignment: an assignment that does not fit
// the mesh is one error, the same on every rank, and leaves the serial
// mesh whole on part 0.
func TestDistributeRejectsBadAssignment(t *testing.T) {
	const nparts = distRanks
	cases := []struct {
		name, cause string
		spoil       func([]int32) []int32
	}{
		{"short", "assignment has 143 entries for 144 elements", func(a []int32) []int32 { return a[:len(a)-1] }},
		{"long", "assignment has 145 entries for 144 elements", func(a []int32) []int32 { return append(a, 0) }},
		{"part = NParts", fmt.Sprintf("invalid part %d", nparts), func(a []int32) []int32 { a[7] = nparts; return a }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := pcu.Run(distRanks, func(ctx *pcu.Ctx) error {
				serial, assign := distInput(ctx, nparts)
				if ctx.Rank() == 0 {
					assign = tc.spoil(assign)
				}
				dm, err := partition.Distribute(ctx, distModel.Model, 3, serial, assign, 1)
				if !errors.Is(err, partition.ErrMigrateAborted) {
					return fmt.Errorf("rank %d: want ErrMigrateAborted, got %v", ctx.Rank(), err)
				}
				if !strings.Contains(err.Error(), "rank 0: ") || !strings.Contains(err.Error(), tc.cause) {
					return fmt.Errorf("rank %d: %q does not mention rank 0 and %q", ctx.Rank(), err, tc.cause)
				}
				for r, other := range pcu.Allgather(ctx, err.Error()) {
					if other != err.Error() {
						return fmt.Errorf("ranks %d and %d disagree: %q vs %q", ctx.Rank(), r, err, other)
					}
				}
				// Rank 0's findings wait for the collective Verify.
				var whole error
				if ctx.Rank() == 0 {
					if cerr := serial.CheckConsistency(); cerr != nil {
						whole = fmt.Errorf("serial mesh broken after the abort: %v", cerr)
					} else if n := dm.Parts[0].M.Count(3); n != 144 {
						whole = fmt.Errorf("part 0 holds %d of 144 elements after the abort", n)
					}
				}
				if err := partition.Verify(dm); err != nil {
					return err
				}
				return whole
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
