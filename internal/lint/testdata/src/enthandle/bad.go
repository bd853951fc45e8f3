package enthandle

import "github.com/fastmath/pumi-go/internal/mesh"

func badCompare(rcs []mesh.RemoteCopyRef, e mesh.Ent) bool {
	for _, rc := range rcs {
		if rc.Ent == e { // want `remote-copy handle compared`
			return true
		}
	}
	return false
}

func badCompareReversed(rc mesh.RemoteCopyRef, e mesh.Ent) bool {
	rcs := []mesh.RemoteCopyRef{rc}
	if len(rcs) > 0 && e != rcs[0].Ent { // want `remote-copy handle compared`
		return true
	}
	return false
}
