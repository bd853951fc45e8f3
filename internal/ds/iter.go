package ds

import "iter"

// Seq is the iterator protocol used throughout the library: a resumable
// single-use sequence of values. It aliases the standard iter.Seq so that
// callers can range over it directly.
type Seq[T any] = iter.Seq[T]
