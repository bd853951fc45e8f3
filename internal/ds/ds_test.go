package ds

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestSetAddHasRemove(t *testing.T) {
	s := NewSet[int]()
	if s.Len() != 0 {
		t.Fatalf("new set len = %d", s.Len())
	}
	if !s.Add(3) || !s.Add(1) || !s.Add(2) {
		t.Fatal("Add of fresh values returned false")
	}
	if s.Add(3) {
		t.Fatal("Add of duplicate returned true")
	}
	if !s.Has(1) || !s.Has(2) || !s.Has(3) || s.Has(4) {
		t.Fatal("Has wrong")
	}
	if got := s.Values(); !slices.Equal(got, []int{3, 1, 2}) {
		t.Fatalf("insertion order not preserved: %v", got)
	}
	if !s.Remove(1) || s.Remove(1) {
		t.Fatal("Remove semantics wrong")
	}
	if s.Len() != 2 || s.Has(1) {
		t.Fatal("Remove did not delete")
	}
}

func TestSetIterationOrder(t *testing.T) {
	s := NewSet("c", "a", "b")
	got := Collect(s.All())
	if !slices.Equal(got, []string{"c", "a", "b"}) {
		t.Fatalf("All() order = %v", got)
	}
}

func TestSetCloneIndependent(t *testing.T) {
	s := NewSet(1, 2)
	c := s.Clone()
	c.Add(3)
	if s.Has(3) {
		t.Fatal("clone shares storage")
	}
	if !c.Has(1) || !c.Has(2) || !c.Has(3) {
		t.Fatal("clone incomplete")
	}
}

func TestSetUnionIntersects(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(2, 3)
	if !a.Intersects(b) {
		t.Fatal("1,2 and 2,3 should intersect")
	}
	c := NewSet(9)
	if a.Intersects(c) {
		t.Fatal("disjoint sets reported intersecting")
	}
	a.Union(b)
	if a.Len() != 3 || !a.Has(3) {
		t.Fatalf("union wrong: %v", a.Values())
	}
}

func TestSetRemoveKeepsIndexConsistent(t *testing.T) {
	s := NewSet(0, 1, 2, 3, 4)
	s.Remove(1)
	for _, v := range []int{0, 2, 3, 4} {
		if !s.Has(v) {
			t.Fatalf("lost %d after unrelated removal", v)
		}
	}
	// Ensure removal of the moved element still works.
	s.Remove(4)
	if s.Has(4) || s.Len() != 3 {
		t.Fatal("second removal broken")
	}
}

func TestIterHelpers(t *testing.T) {
	seq := Of(1, 2, 3, 4)
	if n := Count(seq); n != 4 {
		t.Fatalf("Count = %d", n)
	}
	even := Collect(Filter(Of(1, 2, 3, 4), func(v int) bool { return v%2 == 0 }))
	if !slices.Equal(even, []int{2, 4}) {
		t.Fatalf("Filter = %v", even)
	}
	sq := Collect(Map(Of(1, 2, 3), func(v int) int { return v * v }))
	if !slices.Equal(sq, []int{1, 4, 9}) {
		t.Fatalf("Map = %v", sq)
	}
}

func TestIterEarlyStop(t *testing.T) {
	// Breaking out of a range over Filter/Map must not panic or keep
	// yielding.
	n := 0
	for v := range Map(Of(1, 2, 3, 4, 5), func(v int) int { return v }) {
		n++
		if v == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("visited %d values, want 2", n)
	}
	n = 0
	for range Filter(Of(1, 2, 3), func(int) bool { return true }) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("filter early stop visited %d", n)
	}
}

// slotKey is a one-group TagKey: the key is its own slot.
type slotKey int

func (k slotKey) TagSlot() (group, slot int) { return 0, int(k) }

func TestTagTableScalar(t *testing.T) {
	tt := NewTagTable[slotKey]()
	ti, err := tt.Create("weight", TagInt, 0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := tt.Create("size", TagFloat, 0)
	if err != nil {
		t.Fatal(err)
	}
	tt.SetInt(ti, 7, 42)
	tt.SetFloat(tf, 7, 2.5)
	if v, ok := tt.GetInt(ti, 7); !ok || v != 42 {
		t.Fatalf("GetInt = %d,%v", v, ok)
	}
	if v, ok := tt.GetFloat(tf, 7); !ok || v != 2.5 {
		t.Fatalf("GetFloat = %g,%v", v, ok)
	}
	if _, ok := tt.GetInt(ti, 8); ok {
		t.Fatal("untagged key reported tagged")
	}
	if !tt.Has(ti, 7) || tt.Has(ti, 8) || tt.Has(ti, -1) || tt.Has(ti, 1<<20) {
		t.Fatal("Has wrong")
	}
	tt.Delete(ti, 7)
	if tt.Has(ti, 7) {
		t.Fatal("Delete failed")
	}
}

func TestTagTableSlices(t *testing.T) {
	tt := NewTagTable[slotKey]()
	tg, err := tt.Create("coords", TagFloatSlice, 3)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{1, 2, 3}
	tt.SetFloats(tg, slotKey(70), in)
	in[0] = 99 // must not alias stored data
	got, ok := tt.GetFloats(tg, slotKey(70))
	if !ok || !slices.Equal(got, []float64{1, 2, 3}) {
		t.Fatalf("GetFloats = %v,%v", got, ok)
	}
	ig, err := tt.Create("ids", TagIntSlice, 2)
	if err != nil {
		t.Fatal(err)
	}
	tt.SetInts(ig, slotKey(70), []int64{4, 5})
	iv, _ := tt.GetInts(ig, slotKey(70))
	if !slices.Equal(iv, []int64{4, 5}) {
		t.Fatalf("GetInts = %v", iv)
	}
	bg, err := tt.Create("blob", TagBytes, 4)
	if err != nil {
		t.Fatal(err)
	}
	tt.SetBytes(bg, slotKey(70), []byte("abcd"))
	bv, _ := tt.GetBytes(bg, slotKey(70))
	if string(bv) != "abcd" {
		t.Fatalf("GetBytes = %q", bv)
	}
}

func TestTagTableErrorsAndDestroy(t *testing.T) {
	tt := NewTagTable[slotKey]()
	if _, err := tt.Create("x", TagInt, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tt.Create("x", TagFloat, 0); err == nil {
		t.Fatal("duplicate tag name accepted")
	}
	if _, err := tt.Create("bad", TagFloatSlice, 0); err == nil {
		t.Fatal("zero-size slice tag accepted")
	}
	tag := tt.Find("x")
	if tag == nil {
		t.Fatal("Find failed")
	}
	tt.SetInt(tag, 1, 5)
	tt.Destroy(tag)
	if tt.Find("x") != nil {
		t.Fatal("Destroy left tag findable")
	}
	if len(tt.Tags()) != 0 { // "x" destroyed, duplicates and "bad" rejected
		t.Fatalf("Tags() = %v", tt.Tags())
	}
}

func TestTagTableKindMismatchPanics(t *testing.T) {
	tt := NewTagTable[slotKey]()
	tag, _ := tt.Create("w", TagInt, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	tt.SetFloat(tag, 1, 1.0)
}

func TestTagTableDeleteAll(t *testing.T) {
	tt := NewTagTable[slotKey]()
	a, _ := tt.Create("a", TagInt, 0)
	b, _ := tt.Create("b", TagFloat, 0)
	tt.SetInt(a, 5, 1)
	tt.SetFloat(b, 5, 2)
	tt.DeleteAll(5)
	if tt.Has(a, 5) || tt.Has(b, 5) {
		t.Fatal("DeleteAll left data")
	}
}

// TestTagTableDestroyedHandle: every access through the handle of a
// destroyed tag panics naming the tag, and the next Create takes over
// its column slot instead of growing the table.
func TestTagTableDestroyedHandle(t *testing.T) {
	tt := NewTagTable[slotKey]()
	keep, _ := tt.Create("keep", TagInt, 0)
	tt.SetInt(keep, 3, 9)
	for cycle := 0; cycle < 5; cycle++ {
		tag, err := tt.Create("field", TagFloatSlice, 2)
		if err != nil {
			t.Fatal(err)
		}
		if tt.Has(tag, 3) {
			t.Fatal("recreated tag inherited data from its predecessor's slot")
		}
		tt.SetFloats(tag, 3, []float64{1, 2})
		tt.Destroy(tag)
		tt.Destroy(tag) // idempotent
		for name, access := range map[string]func(){
			"SetFloats":   func() { tt.SetFloats(tag, 3, []float64{1, 2}) },
			"GetFloats":   func() { tt.GetFloats(tag, 3) },
			"GetInt":      func() { tt.GetInt(tag, 3) }, // dead beats wrong-kind
			"Has":         func() { tt.Has(tag, 3) },
			"Delete":      func() { tt.Delete(tag, 3) },
			"CountTagged": func() { tt.CountTagged(tag) },
		} {
			func() {
				defer func() {
					if got, want := fmt.Sprint(recover()), `ds: tag "field" was destroyed`; got != want {
						t.Errorf("%s through a destroyed handle: panic %q, want %q", name, got, want)
					}
				}()
				access()
			}()
		}
	}
	if len(tt.cols) != 2 {
		t.Errorf("5 create/destroy cycles left %d column slots, want 2", len(tt.cols))
	}
	if v, ok := tt.GetInt(keep, 3); !ok || v != 9 {
		t.Errorf("bystander tag = %d,%v after the cycles", v, ok)
	}
}

// TestTagTableViews: slice getters return views of the column — capped,
// so appending to one cannot reach the next slot — and a Set whose
// source is such a view stores the viewed values even when it has to
// move the column.
func TestTagTableViews(t *testing.T) {
	tt := NewTagTable[slotKey]()
	tag, _ := tt.Create("v", TagFloatSlice, 2)
	tt.SetFloats(tag, 0, []float64{1, 2})
	tt.SetFloats(tag, 1, []float64{3, 4})
	v0, _ := tt.GetFloats(tag, 0)
	_ = append(v0, 99)
	if v1, _ := tt.GetFloats(tag, 1); !slices.Equal(v1, []float64{3, 4}) {
		t.Fatalf("append through a view clobbered the next slot: %v", v1)
	}
	tt.SetFloats(tag, 100000, v0) // far past the column's capacity
	if got, _ := tt.GetFloats(tag, 100000); !slices.Equal(got, []float64{1, 2}) {
		t.Fatalf("Set from a view across a growth stored %v", got)
	}
	if got, _ := tt.GetFloats(tag, 0); !slices.Equal(got, []float64{1, 2}) {
		t.Fatalf("source slot reads %v after the growth", got)
	}
}

func TestIntSetBasics(t *testing.T) {
	s := NewIntSet(3, 1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !slices.Equal(s.Values(), []int32{1, 2, 3}) {
		t.Fatalf("Values = %v", s.Values())
	}
	if s.Min() != 1 {
		t.Fatalf("Min = %d", s.Min())
	}
	if !s.Has(2) || s.Has(9) {
		t.Fatal("Has wrong")
	}
	if s.Add(2) || !s.Add(0) || !slices.Equal(s.Values(), []int32{0, 1, 2, 3}) {
		t.Fatalf("Add semantics: %v", s.Values())
	}
}

func TestIntSetKeyUnique(t *testing.T) {
	a := NewIntSet(0, 1, 2)
	b := NewIntSet(0, 258) // would collide with a naive byte encoding
	if a.Key() == b.Key() {
		t.Fatal("distinct sets share a key")
	}
	if a.Key() != NewIntSet(2, 1, 0).Key() {
		t.Fatal("order-insensitive equality broken")
	}
}

// Property: an IntSet built from arbitrary values always stores the
// sorted unique values, and membership matches the input.
func TestIntSetProperty(t *testing.T) {
	f := func(vals []int32) bool {
		s := NewIntSet(vals...)
		got := s.Values()
		if !slices.IsSorted(got) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				return false
			}
		}
		for _, v := range vals {
			if !s.Has(v) {
				return false
			}
		}
		want := slices.Clone(vals)
		slices.Sort(want)
		want = slices.Compact(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Set insertion order equals first-occurrence order of input.
func TestSetOrderProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		s := NewSet[uint8]()
		var want []uint8
		seen := map[uint8]bool{}
		for _, v := range vals {
			s.Add(v)
			if !seen[v] {
				seen[v] = true
				want = append(want, v)
			}
		}
		return slices.Equal(s.Values(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
