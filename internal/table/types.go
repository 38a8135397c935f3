// Package table defines the relational data plane: column types, schemas,
// typed vectors, tuple batches, and in-memory tables, plus the byte
// encodings that connect columns to the compression codecs and the
// row-store page format.
//
// Data lives entirely in memory; the storage layer charges simulated I/O
// time for the bytes these encodings produce.
package table

import "fmt"

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

// Compare orders two values of the same physical class: -1, 0 or +1.
// Comparing values of different physical classes panics; the binder
// prevents that in well-typed plans.
func (v Value) Compare(w Value) int {
	pa, pb := v.Type.Physical(), w.Type.Physical()
	if pa != pb {
		panic(fmt.Sprintf("table: comparing %v with %v", v.Type, w.Type))
	}
	switch pa {
	case PhysInt:
		switch {
		case v.I < w.I:
			return -1
		case v.I > w.I:
			return 1
		}
	case PhysFloat:
		switch {
		case v.F < w.F:
			return -1
		case v.F > w.F:
			return 1
		}
	case PhysString:
		switch {
		case v.S < w.S:
			return -1
		case v.S > w.S:
			return 1
		}
	}
	return 0
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
