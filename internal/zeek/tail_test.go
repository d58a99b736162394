package zeek

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// --- Reader truncation tolerance (what a tailer sees mid-write) ---

func truncFixture(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Path: "t", Fields: []string{"a", "b"}, Types: []string{"string", "string"}, Open: ts0})
	w.WriteRecord([]string{"r1a", "r1b"})
	w.WriteRecord([]string{"r2a", "r2b"})
	w.Close(ts0.Add(time.Hour))
	return buf.String()
}

func readAllFrom(t *testing.T, in string) []Record {
	t.Helper()
	recs, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll(%q): %v", in, err)
	}
	return recs
}

func TestReaderMissingCloseFooter(t *testing.T) {
	full := truncFixture(t)
	noClose := full[:strings.Index(full, "#close")]
	if recs := readAllFrom(t, noClose); len(recs) != 2 {
		t.Fatalf("without #close: %d records, want 2", len(recs))
	}
}

func TestReaderUnterminatedFinalLine(t *testing.T) {
	full := truncFixture(t)
	noClose := full[:strings.Index(full, "#close")]
	// Drop the final newline: the last record is complete but unterminated.
	unterminated := strings.TrimSuffix(noClose, "\n")
	recs := readAllFrom(t, unterminated)
	if len(recs) != 2 {
		t.Fatalf("unterminated final line: %d records, want 2", len(recs))
	}
	if v, _ := recs[1].Get("b"); v != "r2b" {
		t.Errorf("final record b = %q, want r2b", v)
	}
}

func TestReaderTruncatedMidRecord(t *testing.T) {
	full := truncFixture(t)
	noClose := full[:strings.Index(full, "#close")]
	// Cut inside the last record before its field separator (mid-write): the
	// fragment must be dropped silently, keeping the complete records.
	cut := noClose[:len(noClose)-5]
	recs := readAllFrom(t, cut)
	if len(recs) != 1 {
		t.Fatalf("mid-record truncation: %d records, want 1", len(recs))
	}
}

func TestReaderTruncatedMidDirective(t *testing.T) {
	in := "#separator \\x09\n#fields\ta\tb\n#types\tstring\tstring\nv1\tv2\n#clo"
	if recs := readAllFrom(t, in); len(recs) != 1 {
		t.Fatalf("mid-directive truncation: %d records, want 1", len(recs))
	}
}

func TestReaderTerminatedBadLineStillErrors(t *testing.T) {
	in := "#fields\ta\tb\n#types\tstring\tstring\nonly-one\nv1\tv2\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Read(); err == nil {
		t.Fatal("newline-terminated wrong-count line must still error")
	}
}

// --- Tailer ---

func tailerFixtures(t *testing.T) (path string, write func(string), rename func()) {
	t.Helper()
	dir := t.TempDir()
	path = filepath.Join(dir, "ssl.log")
	write = func(s string) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(f, s); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	n := 0
	rename = func() {
		n++
		if err := os.Rename(path, fmt.Sprintf("%s.%d", path, n)); err != nil {
			t.Fatal(err)
		}
	}
	return
}

func collectTail(t *testing.T, tl *Tailer) []Record {
	t.Helper()
	var got []Record
	if err := tl.Poll(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

const tailHeader = "#separator \\x09\n#path\tssl\n#fields\ta\tb\n#types\tstring\tstring\n"

func TestTailerIncrementalAndPartialLines(t *testing.T) {
	path, write, _ := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	defer tl.Close()

	// Nothing exists yet: polls are quiet no-ops.
	if got := collectTail(t, tl); len(got) != 0 {
		t.Fatalf("poll before file exists: %d records", len(got))
	}
	write(tailHeader + "r1a\tr1b\nr2a\tr2")
	got := collectTail(t, tl)
	if len(got) != 1 {
		t.Fatalf("first poll: %d records, want 1 (partial line held)", len(got))
	}
	// Complete the partial line and add another.
	write("b\nr3a\tr3b\n")
	got = collectTail(t, tl)
	if len(got) != 2 {
		t.Fatalf("second poll: %d records, want 2", len(got))
	}
	if v, _ := got[0].Get("b"); v != "r2b" {
		t.Errorf("carried line b = %q, want r2b", v)
	}
	if tl.LagBytes() != 0 {
		t.Errorf("LagBytes = %d after catch-up", tl.LagBytes())
	}
	// #close is recognized.
	write("#close\t2020-09-01-13-00-00\n")
	collectTail(t, tl)
	if !tl.Closed() {
		t.Error("tailer should report closed after #close")
	}
}

func TestTailerRenameRotation(t *testing.T) {
	path, write, rename := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	defer tl.Close()

	write(tailHeader + "r1a\tr1b\n")
	if got := collectTail(t, tl); len(got) != 1 {
		t.Fatalf("pre-rotation: %d records", len(got))
	}
	// Writer appends one final record (no newline), rotates, starts fresh.
	write("r2a\tr2b")
	rename()
	write(tailHeader + "s1a\ts1b\n")
	got := collectTail(t, tl)
	if len(got) != 2 {
		t.Fatalf("rotation poll: %d records, want 2 (drained final + new file)", len(got))
	}
	if v, _ := got[0].Get("a"); v != "r2a" {
		t.Errorf("drained record a = %q, want r2a", v)
	}
	if v, _ := got[1].Get("a"); v != "s1a" {
		t.Errorf("post-rotation record a = %q, want s1a", v)
	}
	if tl.Rotations() != 1 {
		t.Errorf("Rotations = %d, want 1", tl.Rotations())
	}
}

func TestTailerInPlaceTruncation(t *testing.T) {
	path, write, _ := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	defer tl.Close()

	write(tailHeader + "r1a\tr1b\nr2a\tr2b\n")
	if got := collectTail(t, tl); len(got) != 2 {
		t.Fatalf("before truncation: %d records", len(got))
	}
	// The writer restarts the file from scratch.
	if err := os.WriteFile(path, []byte(tailHeader+"t1a\tt1b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := collectTail(t, tl)
	if len(got) != 1 {
		t.Fatalf("after truncation: %d records, want 1", len(got))
	}
	if v, _ := got[0].Get("a"); v != "t1a" {
		t.Errorf("record a = %q, want t1a", v)
	}
	if tl.Rotations() != 1 {
		t.Errorf("Rotations = %d, want 1", tl.Rotations())
	}
}

func TestTailerMalformedLineCounted(t *testing.T) {
	path, write, _ := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	defer tl.Close()

	write(tailHeader + "r1a\tr1b\nbroken-line\nr2a\tr2b\n")
	got := collectTail(t, tl)
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2 (malformed dropped)", len(got))
	}
	if tl.ParseErrors() != 1 {
		t.Errorf("ParseErrors = %d, want 1", tl.ParseErrors())
	}
}

func TestTailerStateRestore(t *testing.T) {
	path, write, _ := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	write(tailHeader + "r1a\tr1b\nr2a\tr2b\n")
	if got := collectTail(t, tl); len(got) != 2 {
		t.Fatalf("first run: %d records", len(got))
	}
	state := tl.State()
	tl.Close()

	// New records land while the daemon is down; the restored tailer must
	// pick up exactly there — header state included, since the restored
	// position is past the #fields block.
	write("r3a\tr3b\n")
	tl2 := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	tl2.Restore(state)
	defer tl2.Close()
	got := collectTail(t, tl2)
	if len(got) != 1 {
		t.Fatalf("restored run: %d records, want 1", len(got))
	}
	if v, _ := got[0].Get("a"); v != "r3a" {
		t.Errorf("restored record a = %q, want r3a", v)
	}

	// A rotation while down (file shorter than the saved offset) restarts
	// from the top of the replacement file.
	if err := os.WriteFile(path, []byte(tailHeader+"n1a\tn1b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tl3 := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	tl3.Restore(state)
	defer tl3.Close()
	got = collectTail(t, tl3)
	if len(got) != 1 {
		t.Fatalf("restore-after-rotation: %d records, want 1", len(got))
	}
	if v, _ := got[0].Get("a"); v != "n1a" {
		t.Errorf("record a = %q, want n1a", v)
	}
}

func TestTailerJSONLines(t *testing.T) {
	path, write, _ := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewJSONDecoder() })
	defer tl.Close()

	write(`{"a":"r1a","n":3}` + "\n" + `{"a":"r2`)
	got := collectTail(t, tl)
	if len(got) != 1 {
		t.Fatalf("json poll: %d records, want 1", len(got))
	}
	if v, _ := got[0].Get("a"); v != "r1a" {
		t.Errorf("a = %q", v)
	}
	write(`a"}` + "\n")
	got = collectTail(t, tl)
	if len(got) != 1 {
		t.Fatalf("json second poll: %d records, want 1", len(got))
	}
	if v, _ := got[0].Get("a"); v != "r2a" {
		t.Errorf("completed a = %q", v)
	}
}

// TestTailerLineLongerThanBuffer: the one read buffer grows for a line that
// outsizes it — delivered across many reads, some ending mid-line — and the
// lines around it still come out whole and in order.
func TestTailerLineLongerThanBuffer(t *testing.T) {
	path, write, _ := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	defer tl.Close()

	long := strings.Repeat("x", 3*tailBufSize+17)
	content := tailHeader + "r1a\tr1b\n" + long + "\tlb\nr3a"
	write(content[:len(tailHeader)+tailBufSize]) // ends inside the long value
	got := collectTail(t, tl)
	write(content[len(tailHeader)+tailBufSize:])
	got = append(got, collectTail(t, tl)...)
	if err := tl.Finish(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || tl.ParseErrors() != 1 {
		t.Fatalf("%d records, %d parse errors; want 2 records and the cut-off final line counted", len(got), tl.ParseErrors())
	}
	if v, _ := got[1].Get("a"); v != long {
		t.Errorf("long value came back %d bytes, want %d", len(v), len(long))
	}
	if tl.Offset() != int64(len(content)) || tl.LagBytes() != 0 {
		t.Errorf("offset %d, lag %d after draining %d bytes", tl.Offset(), tl.LagBytes(), len(content))
	}
}

// TestTailerSinkErrorLosesNothing: when the sink stops a poll mid-buffer, the
// lines behind the failing one stay held and the next poll delivers them.
func TestTailerSinkErrorLosesNothing(t *testing.T) {
	path, write, _ := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	defer tl.Close()
	write(tailHeader + "r1a\tx\nr2a\tx\nr3a\tx\nr4a\tpart")

	stop := fmt.Errorf("sink full")
	var got []string
	err := tl.Poll(func(r Record) error {
		v, _ := r.Get("a")
		got = append(got, v)
		if v == "r2a" {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("poll error = %v, want the sink's", err)
	}
	write("ial\n")
	if err := tl.Poll(func(r Record) error { v, _ := r.Get("a"); got = append(got, v); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"r1a", "r2a", "r3a", "r4a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestTailerFinishAfterSinkError: Finish after a sink error decodes each held
// line, then the unterminated final one — not the held bytes as one line.
func TestTailerFinishAfterSinkError(t *testing.T) {
	path, write, _ := tailerFixtures(t)
	tl := NewTailer(path, func() LineDecoder { return NewTSVDecoder() })
	defer tl.Close()
	write(tailHeader + "r1a\tx\nr2a\tx\nr3a\tx\nr4a\tpart")

	stop := fmt.Errorf("sink full")
	var got []string
	collect := func(r Record) error {
		v, _ := r.Get("a")
		got = append(got, v)
		if v == "r1a" {
			return stop
		}
		return nil
	}
	if err := tl.Poll(collect); err != stop {
		t.Fatalf("poll error = %v, want the sink's", err)
	}
	if err := tl.Finish(collect); err != nil {
		t.Fatal(err)
	}
	if want := []string{"r1a", "r2a", "r3a", "r4a"}; !reflect.DeepEqual(got, want) || tl.ParseErrors() != 0 {
		t.Fatalf("got %v with %d parse errors, want %v and none", got, tl.ParseErrors(), want)
	}
	if fi, err := os.Stat(path); err != nil || tl.Offset() != fi.Size() {
		t.Fatalf("offset %d after Finish, want the file size (%v)", tl.Offset(), err)
	}
}
