package san

import (
	"fmt"
	"sync"
)

// OwnershipError reports an illegal mesh entity write: a non-owner
// mutating a shared/ghost entity (Kind "owner"), a second goroutine
// mutating a goroutine-confined mesh (Kind "confinement"), or a write
// through a handle whose entity is not alive (Kind "dead"). GID is the
// writing goroutine; OwnerGID is the goroutine that owns the mesh
// (first writer), so the offending pair is named in every kind.
type OwnershipError struct {
	Kind          string // "owner", "confinement" or "dead"
	Op            string // mutator that fired: "coord", "classify", "ghost", "tag", ...
	Ent           string // entity being written
	GID, OwnerGID int64
}

func (e *OwnershipError) Error() string {
	switch e.Kind {
	case "confinement":
		return fmt.Sprintf(
			"pumi-san: mesh written by two goroutines: %s of %s on goroutine %d, but the mesh is confined to goroutine %d",
			e.Op, e.Ent, e.GID, e.OwnerGID)
	case "dead":
		return fmt.Sprintf(
			"pumi-san: write through a dead handle: %s of %s on goroutine %d (mesh goroutine %d); the entity is no longer on this part",
			e.Op, e.Ent, e.GID, e.OwnerGID)
	}
	return fmt.Sprintf(
		"pumi-san: non-owner write: %s of shared entity %s on goroutine %d (mesh goroutine %d); only the owning part may mutate a shared or ghost entity",
		e.Op, e.Ent, e.GID, e.OwnerGID)
}

// Is makes errors.Is(err, ErrOwnership) match.
func (e *OwnershipError) Is(target error) bool { return target == ErrOwnership }

// MeshGuard is the per-mesh shadow state behind the owner-only write
// check. It satisfies the mesh package's Guard interface structurally
// (this package cannot import mesh: mesh imports pcu, pcu imports san).
//
// Confinement: the first guarded write pins the mesh to its goroutine;
// any later write from a different goroutine panics with a
// *OwnershipError naming both goroutine ids. Liveness: a write through
// a handle whose entity is not alive panics, in or out of a Suspend
// window. Ownership: a write to a shared or ghost entity this part does
// not own panics unless it happens inside a Suspend window — the
// sanctioned exceptions are the protocol steps that apply a remote
// owner's data (migration unpack and restitch, owner-to-copy tag
// synchronization).
type MeshGuard struct {
	mu        sync.Mutex
	ownerGID  int64
	suspended int
}

// NewMeshGuard returns a guard not yet pinned to a goroutine.
func NewMeshGuard() *MeshGuard { return &MeshGuard{} }

// CheckWrite validates one mutation. op names the mutator, ent the
// entity, dead whether the handle names no live entity, and
// sharedNotOwned whether the entity is a shared or ghost copy this part
// does not own (both computed by the caller, which can see the mesh).
// Violations panic with *OwnershipError.
func (g *MeshGuard) CheckWrite(op string, ent fmt.Stringer, dead, sharedNotOwned bool) {
	gid := GoroutineID()
	g.mu.Lock()
	if g.ownerGID == 0 {
		g.ownerGID = gid
	}
	owner, susp := g.ownerGID, g.suspended
	g.mu.Unlock()
	if gid != owner {
		panic(&OwnershipError{Kind: "confinement", Op: op, Ent: ent.String(), GID: gid, OwnerGID: owner})
	}
	if dead {
		panic(&OwnershipError{Kind: "dead", Op: op, Ent: ent.String(), GID: gid, OwnerGID: owner})
	}
	if sharedNotOwned && susp == 0 {
		panic(&OwnershipError{Kind: "owner", Op: op, Ent: ent.String(), GID: gid, OwnerGID: owner})
	}
}

// Suspend opens a window in which non-owner writes are sanctioned
// (goroutine confinement stays enforced). It returns the resume
// function; windows nest.
func (g *MeshGuard) Suspend() func() {
	g.mu.Lock()
	g.suspended++
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.suspended--
		g.mu.Unlock()
	}
}
