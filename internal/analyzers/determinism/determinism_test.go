package determinism

import (
	"go/parser"
	"go/token"
	"testing"
)

// analyzeSrc parses one source string and runs the file analyzer.
func analyzeSrc(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return AnalyzeFile(fset, file)
}

// rules extracts the rule names of the findings, in order.
func rules(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Rule
	}
	return out
}

func TestTimeNow(t *testing.T) {
	fs := analyzeSrc(t, `package p
import "time"
func f() time.Time { return time.Now() }
`)
	if len(fs) != 1 || fs[0].Rule != "time-now" {
		t.Fatalf("findings = %v", fs)
	}
	if fs[0].Pos.Line != 3 {
		t.Errorf("line = %d, want 3", fs[0].Pos.Line)
	}
}

func TestTimeNowAliasedImport(t *testing.T) {
	fs := analyzeSrc(t, `package p
import clock "time"
func f() clock.Time { return clock.Now() }
`)
	if len(fs) != 1 || fs[0].Rule != "time-now" {
		t.Fatalf("aliased time.Now not flagged: %v", fs)
	}
}

func TestTimeNowShadowedNotFlagged(t *testing.T) {
	fs := analyzeSrc(t, `package p
type fake struct{}
func (fake) Now() int { return 0 }
func f() int {
	time := fake{}
	return time.Now()
}
`)
	if len(fs) != 0 {
		t.Fatalf("shadowed time flagged: %v", fs)
	}
}

func TestOtherTimeFuncsNotFlagged(t *testing.T) {
	fs := analyzeSrc(t, `package p
import "time"
func f() time.Time { return time.Date(2020, 9, 1, 0, 0, 0, 0, time.UTC) }
`)
	if len(fs) != 0 {
		t.Fatalf("time.Date flagged: %v", fs)
	}
}

func TestUnseededRand(t *testing.T) {
	fs := analyzeSrc(t, `package p
import "math/rand/v2"
func f() int { return rand.IntN(10) }
`)
	if len(fs) != 1 || fs[0].Rule != "unseeded-rand" {
		t.Fatalf("findings = %v", fs)
	}
}

func TestSeededRandNotFlagged(t *testing.T) {
	fs := analyzeSrc(t, `package p
import "math/rand/v2"
func f() int {
	rng := rand.New(rand.NewPCG(1, 2))
	return rng.IntN(10)
}
`)
	if len(fs) != 0 {
		t.Fatalf("seeded generator flagged: %v", fs)
	}
}

func TestMapRangeOutput(t *testing.T) {
	fs := analyzeSrc(t, `package p
import "fmt"
func f() {
	m := map[string]int{"a": 1}
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`)
	if len(fs) != 1 || fs[0].Rule != "map-range-output" {
		t.Fatalf("findings = %v", fs)
	}
}

func TestMapRangeWriterOutput(t *testing.T) {
	fs := analyzeSrc(t, `package p
import "strings"
func f() string {
	var b strings.Builder
	m := make(map[string]int)
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}
`)
	if len(fs) != 1 || fs[0].Rule != "map-range-output" {
		t.Fatalf("findings = %v", fs)
	}
}

func TestMapRangeAccumulateNotFlagged(t *testing.T) {
	fs := analyzeSrc(t, `package p
func f() int {
	m := map[string]int{"a": 1}
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
`)
	if len(fs) != 0 {
		t.Fatalf("pure accumulation flagged: %v", fs)
	}
}

func TestSliceRangeOutputNotFlagged(t *testing.T) {
	fs := analyzeSrc(t, `package p
import "fmt"
func f() {
	s := []int{1, 2}
	for _, v := range s {
		fmt.Println(v)
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("slice range flagged: %v", fs)
	}
}

func TestMapParamRangeOutput(t *testing.T) {
	fs := analyzeSrc(t, `package p
import "fmt"
func f(m map[string]int) {
	for k := range m {
		fmt.Println(k)
	}
}
`)
	if len(fs) != 1 || fs[0].Rule != "map-range-output" {
		t.Fatalf("map parameter range not flagged: %v", fs)
	}
}

func TestFindingsSortedAndCombined(t *testing.T) {
	fs := analyzeSrc(t, `package p
import (
	"fmt"
	"math/rand/v2"
	"time"
)
func f() {
	m := make(map[int]bool)
	for k := range m {
		fmt.Println(k)
	}
	_ = rand.IntN(3)
	_ = time.Now()
}
`)
	want := []string{"map-range-output", "unseeded-rand", "time-now"}
	got := rules(fs)
	if len(got) != len(want) {
		t.Fatalf("rules = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rules = %v, want %v", got, want)
		}
	}
	for i := 1; i < len(fs); i++ {
		if fs[i].Pos.Line < fs[i-1].Pos.Line {
			t.Errorf("findings out of order: %v", fs)
		}
	}
}
