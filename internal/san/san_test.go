package san

import (
	"errors"
	"sync"
	"testing"
)

func TestOpLogHashDeterministic(t *testing.T) {
	mk := func() *OpLog {
		l := NewOpLog()
		l.Record("barrier", 0)
		l.Record("exchange", 0xbeef)
		l.Record("allreduce", 0)
		return l
	}
	a, b := mk(), mk()
	if a.Hash() != b.Hash() {
		t.Fatalf("identical logs hash differently: %#x vs %#x", a.Hash(), b.Hash())
	}
	b.Record("barrier", 0)
	if a.Hash() == b.Hash() {
		t.Fatal("extended log kept the same hash")
	}
}

func TestOpLogHashSensitive(t *testing.T) {
	a, b := NewOpLog(), NewOpLog()
	a.Record("barrier", 0)
	b.Record("allreduce", 0)
	if a.Hash() == b.Hash() {
		t.Fatal("different ops hash equal")
	}
	// Detail participates in the trace hash: a payload reordering
	// changes it even when the op sequence does not.
	c, d := NewOpLog(), NewOpLog()
	c.Record("exchange", 1)
	d.Record("exchange", 2)
	if c.Hash() == d.Hash() {
		t.Fatal("different details hash equal")
	}
}

func TestGoroutineID(t *testing.T) {
	if GoroutineID() == 0 {
		t.Fatal("GoroutineID returned 0 for a live goroutine")
	}
	mine := GoroutineID()
	if again := GoroutineID(); again != mine {
		t.Fatalf("id not stable: %d then %d", mine, again)
	}
	ch := make(chan int64)
	go func() { ch <- GoroutineID() }()
	if other := <-ch; other == mine {
		t.Fatalf("two goroutines share id %d", mine)
	}
}

type fakeEnt string

func (e fakeEnt) String() string { return string(e) }

// checkOwnership runs f, which must panic with an *OwnershipError of
// the given kind, and returns the error.
func checkOwnership(t *testing.T, kind string, f func()) (err *OwnershipError) {
	t.Helper()
	func() {
		defer func() {
			err, _ = recover().(*OwnershipError)
		}()
		f()
	}()
	if err == nil {
		t.Fatalf("no *OwnershipError panic from %s write", kind)
	}
	if err.Kind != kind {
		t.Fatalf("Kind = %q, want %q", err.Kind, kind)
	}
	if !errors.Is(err, ErrOwnership) {
		t.Fatal("OwnershipError does not match ErrOwnership")
	}
	return err
}

func TestMeshGuardOwnerWrite(t *testing.T) {
	g := NewMeshGuard()
	g.CheckWrite("coord", fakeEnt("vtx 1"), false, false) // owned: fine
	err := checkOwnership(t, "owner", func() {
		g.CheckWrite("tag", fakeEnt("vtx 2"), false, true)
	})
	if err.Op != "tag" || err.Ent != "vtx 2" {
		t.Fatalf("error names %s of %s", err.Op, err.Ent)
	}
	if err.GID == 0 || err.GID != err.OwnerGID {
		t.Fatalf("offending pair %d/%d, want same live goroutine", err.GID, err.OwnerGID)
	}
}

func TestMeshGuardDeadWrite(t *testing.T) {
	g := NewMeshGuard()
	err := checkOwnership(t, "dead", func() {
		g.CheckWrite("coord", fakeEnt("vtx 7"), true, false)
	})
	if err.Op != "coord" || err.Ent != "vtx 7" {
		t.Fatalf("error names %s of %s", err.Op, err.Ent)
	}
	// No protocol window sanctions a write through a dead handle.
	defer g.Suspend()()
	checkOwnership(t, "dead", func() {
		g.CheckWrite("tag", fakeEnt("vtx 8"), true, false)
	})
}

func TestMeshGuardSuspendWindow(t *testing.T) {
	g := NewMeshGuard()
	resume := g.Suspend()
	g.CheckWrite("tag", fakeEnt("vtx 2"), false, true) // sanctioned
	inner := g.Suspend()                               // windows nest
	g.CheckWrite("flag", fakeEnt("vtx 3"), false, true)
	inner()
	g.CheckWrite("tag", fakeEnt("vtx 4"), false, true)
	resume()
	checkOwnership(t, "owner", func() {
		g.CheckWrite("tag", fakeEnt("vtx 5"), false, true)
	})
}

func TestMeshGuardConfinement(t *testing.T) {
	g := NewMeshGuard()
	g.CheckWrite("coord", fakeEnt("vtx 1"), false, false) // pins the mesh here
	var wg sync.WaitGroup
	var got *OwnershipError
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				got, _ = p.(*OwnershipError)
			}
		}()
		g.CheckWrite("coord", fakeEnt("vtx 1"), false, false)
	}()
	wg.Wait()
	if got == nil {
		t.Fatal("cross-goroutine write did not panic")
	}
	if got.Kind != "confinement" {
		t.Fatalf("Kind = %q, want confinement", got.Kind)
	}
	if got.GID == got.OwnerGID || got.GID == 0 || got.OwnerGID == 0 {
		t.Fatalf("offending pair not captured: gid %d owner %d", got.GID, got.OwnerGID)
	}
	// Confinement holds even inside a Suspend window.
	resume := g.Suspend()
	defer resume()
	var still *OwnershipError
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				still, _ = p.(*OwnershipError)
			}
		}()
		g.CheckWrite("tag", fakeEnt("vtx 9"), false, true)
	}()
	wg.Wait()
	if still == nil || still.Kind != "confinement" {
		t.Fatalf("suspend window relaxed confinement: %v", still)
	}
}

func TestEnableDisable(t *testing.T) {
	if Enabled() {
		t.Fatal("sanitizer enabled by default")
	}
	Enable()
	if !Enabled() {
		t.Fatal("Enable did not stick")
	}
	Disable()
	if Enabled() {
		t.Fatal("Disable did not stick")
	}
}

func TestFoldAndHashDetail(t *testing.T) {
	if Fold(0, 1) == Fold(0, 2) {
		t.Fatal("Fold insensitive to value")
	}
	if Fold(Fold(0, 1), 2) == Fold(Fold(0, 2), 1) {
		t.Fatal("Fold insensitive to order")
	}
	d := HashDetail(DetailSeed, 7)
	if d == DetailSeed || d != HashDetail(DetailSeed, 7) {
		t.Fatalf("HashDetail unstable: %#x", d)
	}
	if HashBytes(DetailSeed, []byte{1, 2}) == HashBytes(DetailSeed, []byte{2, 1}) {
		t.Fatal("HashBytes insensitive to byte order")
	}
	if HashBytes(DetailSeed, nil) == DetailSeed {
		t.Fatal("HashBytes ignored the length")
	}
}
