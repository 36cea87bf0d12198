// Package sqltype defines the SQL data types, typed values, and comparison
// operators shared by the index layer, the statistics collector, the query
// front ends, and the optimizer. It mirrors the type clause of DB2 XML
// index DDL (CREATE INDEX ... GENERATE KEY USING XMLPATTERN '...' AS SQL
// VARCHAR/DOUBLE/DATE).
package sqltype

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Type is the SQL type of an XML index or predicate constant.
type Type uint8

const (
	// Varchar indexes/compares values as strings.
	Varchar Type = iota
	// Double indexes/compares values as 64-bit floats.
	Double
	// Date indexes/compares values as calendar dates.
	Date
)

// Types lists all supported types, in a stable order.
var Types = []Type{Varchar, Double, Date}

// String returns the DDL spelling of the type.
func (t Type) String() string {
	switch t {
	case Varchar:
		return "VARCHAR(100)"
	case Double:
		return "DOUBLE"
	case Date:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Short returns a compact name used in index naming and reports.
func (t Type) Short() string {
	switch t {
	case Varchar:
		return "str"
	case Double:
		return "dbl"
	case Date:
		return "date"
	default:
		return "?"
	}
}

// ParseType parses a type name in either DDL or short spelling.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "VARCHAR", "VARCHAR(100)", "STR", "STRING":
		return Varchar, nil
	case "DOUBLE", "DBL", "FLOAT", "NUMERIC":
		return Double, nil
	case "DATE":
		return Date, nil
	}
	return Varchar, fmt.Errorf("sqltype: unknown type %q", s)
}

// Value is a typed value. For Double and Date the F field carries the
// comparable form (Date as fractional days since the Unix epoch); for
// Varchar the S field carries the string.
type Value struct {
	Type Type
	F    float64
	S    string
}

// dateLayouts are the accepted textual date formats, tried in order.
var dateLayouts = []string{"2006-01-02", "2006-01-02T15:04:05", "2006/01/02"}

// Cast interprets raw text as a value of type t. ok is false when the text
// does not convert (e.g. "abc" AS DOUBLE) — such nodes simply do not
// appear in an index of that type, mirroring DB2's REJECT INVALID VALUES
// behaviour. Text that cannot start a number or a date is rejected before
// the parsers run, so the common failure builds no error value.
func Cast(t Type, raw string) (Value, bool) {
	switch t {
	case Varchar:
		return Value{Type: Varchar, S: raw}, true
	case Double:
		s := strings.TrimSpace(raw)
		if s == "" || !strings.ContainsRune("+-.0123456789iInN", rune(s[0])) {
			return Value{}, false
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, false
		}
		return Value{Type: Double, F: f}, true
	case Date:
		// Every layout needs at least "2006-01-02"'s 10 bytes, led by the
		// year's digit or sign.
		s := strings.TrimSpace(raw)
		if len(s) < 10 || !strings.ContainsRune("+-0123456789", rune(s[0])) {
			return Value{}, false
		}
		for _, layout := range dateLayouts {
			if tm, err := time.Parse(layout, s); err == nil {
				return Value{Type: Date, F: float64(tm.Unix()) / 86400.0}, true
			}
		}
		return Value{}, false
	}
	return Value{}, false
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case Varchar:
		return strconv.Quote(v.S)
	case Double:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Date:
		tm := time.Unix(int64(v.F*86400), 0).UTC()
		return tm.Format("2006-01-02")
	}
	return "?"
}

// Compare orders two values of the same type: -1, 0, or +1. It panics if
// the types differ; callers cast first.
func Compare(a, b Value) int {
	if a.Type != b.Type {
		panic(fmt.Sprintf("sqltype: comparing %v to %v", a.Type, b.Type))
	}
	if a.Type == Varchar {
		return strings.Compare(a.S, b.S)
	}
	switch {
	case a.F < b.F:
		return -1
	case a.F > b.F:
		return 1
	default:
		return 0
	}
}

// CmpOp is a comparison operator in a query predicate.
type CmpOp uint8

const (
	// Exists is the absence of a value predicate: the path merely has to
	// exist (structural predicate).
	Exists CmpOp = iota
	// Eq is "=".
	Eq
	// Ne is "!=".
	Ne
	// Lt is "<".
	Lt
	// Le is "<=".
	Le
	// Gt is ">".
	Gt
	// Ge is ">=".
	Ge
	// ContainsSubstr is the contains(path, "s") function.
	ContainsSubstr
)

// String returns the operator's query spelling.
func (op CmpOp) String() string {
	switch op {
	case Exists:
		return "exists"
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case ContainsSubstr:
		return "contains"
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Eval applies the operator to a raw node value and a typed constant. The
// raw value is cast to the constant's type first; a failed cast yields
// false (the node cannot satisfy a typed comparison).
func Eval(raw string, op CmpOp, c Value) bool {
	switch op {
	case Exists:
		return true
	case ContainsSubstr:
		return strings.Contains(raw, c.S)
	}
	v, ok := Cast(c.Type, raw)
	if !ok {
		return false
	}
	cmp := Compare(v, c)
	switch op {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	}
	return false
}
