package sqltype

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCastVarchar(t *testing.T) {
	v, ok := Cast(Varchar, "hello")
	if !ok || v.S != "hello" || v.Type != Varchar {
		t.Errorf("Cast varchar = %+v, %v", v, ok)
	}
}

func TestCastDouble(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"1.5", 1.5, true},
		{" 42 ", 42, true},
		{"-3e2", -300, true},
		{"abc", 0, false},
		{"", 0, false},
		{"12abc", 0, false},
	}
	for _, tc := range cases {
		v, ok := Cast(Double, tc.in)
		if ok != tc.ok || (ok && v.F != tc.want) {
			t.Errorf("Cast(Double, %q) = %+v, %v", tc.in, v, ok)
		}
	}
}

func TestCastDate(t *testing.T) {
	v, ok := Cast(Date, "2008-06-09") // SIGMOD'08 started June 9
	if !ok {
		t.Fatal("date cast failed")
	}
	v2, ok := Cast(Date, "2008-06-10")
	if !ok {
		t.Fatal("date cast failed")
	}
	if !(v.F < v2.F) {
		t.Error("date ordering broken")
	}
	if d := v2.F - v.F; d < 0.99 || d > 1.01 {
		t.Errorf("one day apart = %f days", d)
	}
	if _, ok := Cast(Date, "not a date"); ok {
		t.Error("bad date should fail")
	}
	if got := v.String(); got != "2008-06-09" {
		t.Errorf("date String = %q", got)
	}
	if _, ok := Cast(Date, "2008/06/09"); !ok {
		t.Error("slash layout should parse")
	}
	if _, ok := Cast(Date, "2008-06-09T10:30:00"); !ok {
		t.Error("datetime layout should parse")
	}
}

func TestCompare(t *testing.T) {
	a, _ := Cast(Double, "1")
	b, _ := Cast(Double, "2")
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
		t.Error("double compare broken")
	}
	s1, _ := Cast(Varchar, "apple")
	s2, _ := Cast(Varchar, "banana")
	if Compare(s1, s2) >= 0 {
		t.Error("varchar compare broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-type Compare should panic")
		}
	}()
	Compare(a, s1)
}

func TestEval(t *testing.T) {
	c, _ := Cast(Double, "100")
	cases := []struct {
		raw  string
		op   CmpOp
		want bool
	}{
		{"100", Eq, true},
		{"100.0", Eq, true},
		{"99", Eq, false},
		{"99", Lt, true},
		{"100", Lt, false},
		{"100", Le, true},
		{"101", Gt, true},
		{"100", Ge, true},
		{"abc", Eq, false}, // failed cast never satisfies
		{"abc", Ne, false}, // even Ne requires a castable value
		{"55", Ne, true},
		{"anything", Exists, true},
	}
	for _, tc := range cases {
		if got := Eval(tc.raw, tc.op, c); got != tc.want {
			t.Errorf("Eval(%q %v 100) = %v, want %v", tc.raw, tc.op, got, tc.want)
		}
	}
	s, _ := Cast(Varchar, "err")
	if !Eval("keyboard error", ContainsSubstr, s) {
		t.Error("contains should match substring")
	}
	if Eval("fine", ContainsSubstr, s) {
		t.Error("contains should not match")
	}
}

func TestParseType(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Type
	}{
		{"VARCHAR", Varchar}, {"varchar(100)", Varchar}, {"str", Varchar},
		{"DOUBLE", Double}, {"dbl", Double}, {"float", Double},
		{"DATE", Date}, {" date ", Date},
	} {
		got, err := ParseType(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseType(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("unknown type should fail")
	}
}

func TestOpStringsAndRangeable(t *testing.T) {
	if Eq.String() != "=" || Lt.String() != "<" || Exists.String() != "exists" {
		t.Error("op String broken")
	}
}

// Property: Eval(raw, Eq, Cast(raw)) holds for any float-formatted raw.
func TestEvalEqReflexiveProperty(t *testing.T) {
	f := func(x float64) bool {
		v := Value{Type: Double, F: x}
		raw := v.String()
		got, ok := Cast(Double, raw)
		if !ok {
			return false
		}
		return Compare(got, v) == 0 && Eval(raw, Eq, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTypeStrings(t *testing.T) {
	if Varchar.String() != "VARCHAR(100)" || Double.String() != "DOUBLE" || Date.String() != "DATE" {
		t.Error("type DDL spelling broken")
	}
	if Varchar.Short() != "str" || Double.Short() != "dbl" || Date.Short() != "date" {
		t.Error("short names broken")
	}
}

// castReference is Cast without its early rejections: the plain parsers
// on the trimmed text.
func castReference(t Type, raw string) (Value, bool) {
	s := strings.TrimSpace(raw)
	switch t {
	case Varchar:
		return Value{Type: Varchar, S: raw}, true
	case Double:
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Value{Type: Double, F: f}, true
		}
	case Date:
		for _, layout := range []string{"2006-01-02", "2006-01-02T15:04:05", "2006/01/02"} {
			if tm, err := time.Parse(layout, s); err == nil {
				return Value{Type: Date, F: float64(tm.Unix()) / 86400.0}, true
			}
		}
	}
	return Value{}, false
}

// FuzzCast checks that Cast's early rejections leave the accepted set and
// the cast values unchanged, for every type.
func FuzzCast(f *testing.F) {
	for _, s := range []string{
		"1.5", " 42 ", "-3e2", "+7", ".5", "-.5e1", "5.", "1e400", "1_000", "0x_1p0",
		"inf", "+Inf", "-infinity", "Infinity", "NaN", "nan", "-NaN",
		"0x1p-2", "0X1.8P3", "-0x10p0", "0x1", "abc", "", " ", "12abc", "e5",
		"2008-06-09", "+2008-06-09", "-2008-06-09", "-0001-01-01", "0000-01-01",
		"2008-06-09T12:30:00", "2008/06/09", "2008-6-9", "2008-06-9", "208-06-09",
		"2008-13-01", "2008-02-30", " 2008-06-09 ", "\t2008-06-09\n", "\u00a02008-06-09",
		"20080609", "2008-06-09x", "2008-06-09T12:30", "\u0662\u0660\u0660\u0668-06-09",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, typ := range Types {
			got, ok := Cast(typ, raw)
			want, wantOK := castReference(typ, raw)
			if ok != wantOK || got.Type != want.Type || got.S != want.S ||
				math.Float64bits(got.F) != math.Float64bits(want.F) {
				t.Fatalf("Cast(%v, %q) = %+v, %v; reference %+v, %v", typ, raw, got, ok, want, wantOK)
			}
		}
	})
}
