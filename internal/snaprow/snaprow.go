// Package snaprow is the row protocol FSNAP sections are written from
// and loaded into (see internal/persistence). A section's lists are
// written from a Rows value — the row count first, because the wire
// format puts the count before the rows — and loaded through a Loader,
// which is told how many rows to expect before it receives them.
//
// A live component implements its sources over its own tables, filling
// one reused row value per row, so writing a snapshot copies nothing;
// its loaders append rows into staged tables. The plain *State structs
// the codec tests and fuzz targets build use Of and Into, so both go
// through the same section code.
package snaprow

import "cmp"

// Rows is a counted row sequence: a slice of rows, or, when Each is
// set, N rows that Each yields once each, in wire order, through a row
// pointer valid only during the call. A slice needs no closure, so
// writing one allocates nothing.
type Rows[T any] struct {
	Slice []T
	N     int
	Each  func(yield func(*T))
}

// Of is the row sequence of a slice.
func Of[T any](xs []T) Rows[T] { return Rows[T]{Slice: xs, N: len(xs)} }

// Loader receives one decoded list. It is called once, with a capacity
// hint that the decoder has already bounded by the bytes left in the
// input (never the raw count a corrupt prefix may claim), and returns
// the function that takes each row. The row pointer is valid only
// during the call: every row of the list is decoded into the same
// value, so a loader copies what it keeps of the row. A row's slices
// are cut from arrays shared with other rows, each capped at its own
// length, and its strings from shared chunks; the loader may keep
// them, and an append to a kept slice reallocates that slice alone.
type Loader[T any] func(hint int) func(*T)

// Into is the loader that appends rows to *xs.
func Into[T any](xs *[]T) Loader[T] {
	return func(hint int) func(*T) {
		*xs = nil
		if hint > 0 {
			*xs = make([]T, 0, hint)
		}
		return func(x *T) { *xs = append(*xs, *x) }
	}
}

// Sorted reports whether xs is strictly ascending by key: the order a
// section writes every list it keeps sorted or derives from a map. A
// restore rejects any other order, or a repeated key, as a list the
// encoder could not have written.
func Sorted[T any, K cmp.Ordered](xs []T, key func(*T) K) bool {
	for i := 1; i < len(xs); i++ {
		if key(&xs[i-1]) >= key(&xs[i]) {
			return false
		}
	}
	return true
}
