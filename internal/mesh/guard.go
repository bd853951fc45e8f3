package mesh

import "fmt"

// Guard observes every entity mutation of a mesh part. It is the hook
// through which pumi-san's owner-only write and goroutine-confinement
// checking attaches (san.MeshGuard satisfies this interface
// structurally); the mesh package defines its own interface rather
// than importing san so the dependency stays one-way — san is also
// used by pcu, which this package imports.
//
// For each write the mesh reports whether the handle names no live
// entity — always illegal — and whether the entity is a shared or ghost
// copy this part does not own: such writes are illegal outside a
// sanctioned protocol window (migration restitching, owner-to-copy
// synchronization), which callers open with SuspendGuard.
type Guard interface {
	CheckWrite(op string, ent fmt.Stringer, dead, sharedNotOwned bool)
	Suspend() func()
}

// SetGuard attaches a write guard to the mesh (nil detaches). The
// partition layer attaches one per part when the sanitizer is enabled.
func (m *Mesh) SetGuard(g Guard) { m.guard = g }

// SuspendGuard opens a sanctioned non-owner write window and returns
// the function that closes it. Windows nest. With no guard attached it
// is a no-op.
func (m *Mesh) SuspendGuard() func() {
	if m.guard == nil {
		return func() {}
	}
	return m.guard.Suspend()
}

// guardWrite routes one mutation through the attached guard, if any.
func (m *Mesh) guardWrite(op string, e Ent) {
	if m.guard == nil {
		return
	}
	dead := !m.Alive(e)
	notOwned := !dead && !m.IsOwned(e) // only a shared entity or a ghost is owned elsewhere
	m.guard.CheckWrite(op, e, dead, notOwned)
}
