// Package ds provides the common utility components shared by the
// geometric model and the mesh: iterators over ranges of data, ordered
// sets for grouping arbitrary data, and tag tables for attaching user
// data to anything that names a slot of dense storage.
//
// These are the "Common Utilities" of the PUMI software structure
// (Fig. 1 of the paper): Iterator, Set and Tag. They are deliberately
// generic so that gmi (geometric model) and mesh reuse iterators and
// sets with their own handle types, and so that the tag table can index
// by mesh entity without this package importing mesh.
package ds
