package enthandle

import "github.com/fastmath/pumi-go/internal/mesh"

func okLocalCompare(a, b mesh.Ent) bool {
	return a == b // both handles live on this part
}

func okNilSentinel(rc mesh.RemoteCopyRef) bool {
	return rc.Ent != mesh.NilEnt // validity check, exempt
}

func okPartCompare(m *mesh.Mesh, rcs []mesh.RemoteCopyRef) bool {
	for _, rc := range rcs {
		if rc.Part == m.Part() { // part ids are global, comparable
			return true
		}
	}
	return false
}

func okResolve(m *mesh.Mesh, e mesh.Ent, peer int32, h mesh.Ent) bool {
	// The sanctioned pattern: resolve through RemoteCopy, compare the
	// resulting same-part handles.
	mine, ok := m.RemoteCopy(e, peer)
	return ok && mine == h
}
