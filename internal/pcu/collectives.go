package pcu

// Collective operations. Every rank of a run must call the same
// collective in the same order; ranks that meet from different ones
// fail with a *MismatchError. Reductions apply op in ascending rank
// order, so all ranks compute bit-identical results.

// Allreduce combines one value per rank with op and returns the result
// on every rank.
func Allreduce[T any](c *Ctx, v T, op func(T, T) T) T {
	return allreduce(c, nil, v, op)
}

// allreduce is Allreduce under the barrier identity id (nil for plain
// opAllreduce): a named reduction meets only itself.
func allreduce[T any](c *Ctx, id *string, v T, op func(T, T) T) T {
	c.collStart(&opAllreduce, id)
	defer c.endOp()
	c.w.slots[c.rank] = v
	c.wait()
	acc := c.w.slots[0].(T)
	for r := 1; r < c.w.size; r++ {
		acc = op(acc, c.w.slots[r].(T))
	}
	c.wait()
	return acc
}

// Reduce combines one value per rank with op; the result is valid on
// root (other ranks receive the zero value).
func Reduce[T any](c *Ctx, root int, v T, op func(T, T) T) T {
	c.collStart(&opReduce, nil)
	defer c.endOp()
	c.w.slots[c.rank] = v
	c.wait()
	var acc T
	if c.rank == root {
		acc = c.w.slots[0].(T)
		for r := 1; r < c.w.size; r++ {
			acc = op(acc, c.w.slots[r].(T))
		}
	}
	c.wait()
	return acc
}

// Bcast distributes root's value to every rank.
func Bcast[T any](c *Ctx, root int, v T) T {
	c.collStart(&opBcast, nil)
	defer c.endOp()
	if c.rank == root {
		c.w.slots[root] = v
	}
	c.wait()
	out := c.w.slots[root].(T)
	c.wait()
	return out
}

// Allgather returns every rank's value, indexed by rank, on every rank.
func Allgather[T any](c *Ctx, v T) []T {
	c.collStart(&opAllgather, nil)
	defer c.endOp()
	c.w.slots[c.rank] = v
	c.wait()
	out := make([]T, c.w.size)
	for r := 0; r < c.w.size; r++ {
		out[r] = c.w.slots[r].(T)
	}
	c.wait()
	return out
}

// Exscan returns the exclusive prefix reduction of v over ranks below
// this one; rank 0 receives the provided identity.
func Exscan[T any](c *Ctx, v, identity T, op func(T, T) T) T {
	c.collStart(&opExscan, nil)
	defer c.endOp()
	c.w.slots[c.rank] = v
	c.wait()
	acc := identity
	for r := 0; r < c.rank; r++ {
		acc = op(acc, c.w.slots[r].(T))
	}
	c.wait()
	return acc
}

// SumInt64 is an allreduce summing int64 values.
func SumInt64(c *Ctx, v int64) int64 {
	return allreduce(c, &idSumInt64, v, func(a, b int64) int64 { return a + b })
}

// MaxInt64 is an allreduce taking the maximum of int64 values.
func MaxInt64(c *Ctx, v int64) int64 {
	return allreduce(c, &idMaxInt64, v, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// MinInt64 is an allreduce taking the minimum of int64 values.
func MinInt64(c *Ctx, v int64) int64 {
	return allreduce(c, &idMinInt64, v, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
}

// SumFloat64 is an allreduce summing float64 values.
func SumFloat64(c *Ctx, v float64) float64 {
	return allreduce(c, &idSumFloat64, v, func(a, b float64) float64 { return a + b })
}

// MaxFloat64 is an allreduce taking the maximum of float64 values.
func MaxFloat64(c *Ctx, v float64) float64 {
	return allreduce(c, &idMaxFloat64, v, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// ExscanInt64 is an exclusive prefix sum of int64 values, the building
// block of global numbering.
func ExscanInt64(c *Ctx, v int64) int64 {
	return Exscan(c, v, 0, func(a, b int64) int64 { return a + b })
}
