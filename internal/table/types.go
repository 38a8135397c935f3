// Package table defines the relational data plane: column types, schemas,
// typed vectors, tuple batches, and in-memory tables, plus the byte
// encodings that connect columns to the compression codecs and the
// row-store page format.
//
// Data lives entirely in memory; the storage layer charges simulated I/O
// time for the bytes these encodings produce.
package table

import (
	"fmt"
	"math"
)

// Type is a column's logical type.
type Type int

const (
	// Int64 is a 64-bit signed integer.
	Int64 Type = iota
	// Float64 is a 64-bit IEEE float.
	Float64
	// String is a variable-length byte string.
	String
	// Date is a day count since 1970-01-01, stored as an int64.
	Date
	// Decimal is a fixed-point value scaled by 100 (cents), stored as an
	// int64 — the TPC-H money type. By SQL's typing rule (internal/sql)
	// an integer literal is whole units and a fraction rounds to the cent
	// (INSERT) or to the operator's side (WHERE); +, -, SUM, MIN and MAX
	// stay decimal, while *, /, AVG or a float see float64 units.
	Decimal
)

func (t Type) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	case Date:
		return "date"
	case Decimal:
		return "decimal"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Phys is the physical representation class of a type.
type Phys int

const (
	// PhysInt covers Int64, Date and Decimal.
	PhysInt Phys = iota
	// PhysFloat covers Float64.
	PhysFloat
	// PhysString covers String.
	PhysString
)

// Physical reports how values of t are stored.
func (t Type) Physical() Phys {
	switch t {
	case Float64:
		return PhysFloat
	case String:
		return PhysString
	default:
		return PhysInt
	}
}

// Value is a single typed datum, used for literals, row APIs and keys.
type Value struct {
	Type Type
	I    int64
	F    float64
	S    string
}

// IntVal, FloatVal, StrVal, DateVal and DecimalVal build Values.
func IntVal(v int64) Value         { return Value{Type: Int64, I: v} }
func FloatVal(v float64) Value     { return Value{Type: Float64, F: v} }
func StrVal(v string) Value        { return Value{Type: String, S: v} }
func DateVal(days int64) Value     { return Value{Type: Date, I: days} }
func DecimalVal(cents int64) Value { return Value{Type: Decimal, I: cents} }

// Compare orders two values of the same physical class in the cell order
// the function Compare defines: -1, 0 or +1. Comparing values of different
// physical classes panics; the binder prevents that in well-typed plans.
func (v Value) Compare(w Value) int {
	pa, pb := v.Type.Physical(), w.Type.Physical()
	if pa != pb {
		panic(fmt.Sprintf("table: comparing %v with %v", v.Type, w.Type))
	}
	switch pa {
	case PhysInt:
		return Compare(v.I, w.I)
	case PhysFloat:
		return Compare(v.F, w.F)
	}
	return Compare(v.S, w.S)
}

// Compare is the one order of cells: -1, 0 or +1. Ints and strings order
// as Go's operators do. Floats order as IEEE numbers, −0 equal to +0, with
// a NaN after every number and equal to every NaN, so the order is total
// and a sort, a group's output order and MIN/MAX all see the same one
// (PostgreSQL orders NaN the same way). WHERE and join equality do not use
// it: there a NaN matches only <>.
func Compare[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b || a != a && b != b: // equal, or two NaNs
		return 0
	case a != a:
		return 1
	}
	return -1
}

// CanonFloat is a float cell in canonical key form: −0 as +0 and every NaN
// as one NaN, so that cells Compare calls equal have equal bits and hash
// alike.
func CanonFloat(f float64) float64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return math.NaN()
	}
	return f
}

func (v Value) String() string {
	switch v.Type {
	case Int64, Date:
		return fmt.Sprintf("%d", v.I)
	case Decimal:
		sign, c := "", uint64(v.I)
		if v.I < 0 {
			sign, c = "-", -c // exact for math.MinInt64 too
		}
		return fmt.Sprintf("%s%d.%02d", sign, c/100, c%100)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	default:
		return fmt.Sprintf("Value(%v)", v.Type)
	}
}
