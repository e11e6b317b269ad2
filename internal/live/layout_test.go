package live

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestServerLayoutByWriter pins Server's layout: what every dispatcher
// iteration and every Poll reads (stop and abort flags, the
// configuration and the slice headers) must sit a cache line
// or more away from everything a request writes on its way in through
// the ingress (the id and round-robin cursors, submitMu's reader count,
// the submit-side counters), and so must the cold lifecycle state. What
// a completion writes is not in Server at all: TestExecutorLinesOwn
// pins where it went. A field moved or added in the wrong group fails
// here rather than as a few percent nobody can bisect. Offsets come from
// reflect (the same numbers as unsafe.Offsetof) so the test can also
// insist that every field is in a group.
func TestServerLayoutByWriter(t *testing.T) {
	groups := map[string][]string{
		"read-mostly": {"opts", "handler", "shards", "locals", "occ", "workers",
			"tr", "classLimit", "coopTimeshare", "classShrink", "serial",
			"stopped", "abort"},
		"submit": {"rr", "nextID", "submitMu", "stopping", "stats.shed",
			"stats.classSubmitted", "stats.classRejected"},
		"cold": {"started", "wg", "startOnce", "stopOnce"},
	}

	// span is a field's byte range inside Server.
	type span struct{ off, end uintptr }
	server := reflect.TypeOf((*Server)(nil)).Elem()
	spanOf := func(path string) span {
		typ, off := server, uintptr(0)
		for _, name := range strings.Split(path, ".") {
			f, ok := typ.FieldByName(name)
			if !ok {
				t.Fatalf("Server has no field %s", path)
			}
			typ, off = f.Type, off+f.Offset
		}
		return span{off, off + typ.Size()}
	}
	// Two fields can never share a cache line, wherever the allocator
	// puts the struct, when cacheLinePad bytes or more lie between them.
	apart := func(a, b span) bool {
		return a.off >= b.end+cacheLinePad || b.off >= a.end+cacheLinePad
	}
	for _, pair := range [][2]string{
		{"read-mostly", "submit"}, {"cold", "submit"},
	} {
		for _, a := range groups[pair[0]] {
			for _, b := range groups[pair[1]] {
				if sa, sb := spanOf(a), spanOf(b); !apart(sa, sb) {
					t.Errorf("%s field %s %v and %s field %s %v can share a cache line",
						pair[0], a, sa, pair[1], b, sb)
				}
			}
		}
	}

	// Every field is in a group: a new one is placed deliberately.
	listed := map[string]bool{}
	for _, names := range groups {
		for _, name := range names {
			listed[name] = true
		}
	}
	var missing func(typ reflect.Type, prefix string)
	missing = func(typ reflect.Type, prefix string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch path := prefix + f.Name; {
			case f.Name == "_" || listed[path]:
			case path == "stats":
				missing(f.Type, "stats.")
			default:
				t.Errorf("Server.%s is in no layout group: add it to its writer's", path)
			}
		}
	}
	missing(server, "")
}

// TestExecutorLinesOwn pins the lines a placed request writes to its
// worker's: two workers' occupancy words, and any two executors'
// counters, are at least cacheLinePad bytes apart, so no two cores
// write one line on their behalf. The distances come from the types
// alone — an element's padding in the occupancy slice, and the padding
// an executor carries around its counters — never from where the
// allocator happens to put two executors, which are separate objects.
func TestExecutorLinesOwn(t *testing.T) {
	// Consecutive occupancy words are one occWord apart: the gap between
	// them is everything in an occWord but the word itself.
	occ := reflect.TypeOf(occWord{})
	word, ok := occ.FieldByName("Int32")
	if !ok {
		t.Fatal("occWord embeds no atomic.Int32")
	}
	if gap := occ.Size() - word.Type.Size(); gap < cacheLinePad {
		t.Errorf("two workers' occupancy words are %d bytes apart, want >= %d", gap, cacheLinePad)
	}
	if before, after := word.Offset, occ.Size()-word.Offset-word.Type.Size(); before < cacheLinePad || after < cacheLinePad {
		t.Errorf("an occupancy word has %d bytes of padding before it and %d after, want >= %d each, "+
			"so it shares no line with whatever lies beside the slice", before, after, cacheLinePad)
	}

	// Two executors never overlap, so between one's counters and
	// another's lie at least the bytes after the counters in the first
	// and before them in the second, whichever comes first in memory.
	ex := reflect.TypeOf(executor{})
	n, ok := ex.FieldByName("n")
	if !ok {
		t.Fatal("executor has no counters field n")
	}
	if gap := ex.Size() - n.Type.Size(); gap < cacheLinePad {
		t.Errorf("two executors' counters can be %d bytes apart, want >= %d", gap, cacheLinePad)
	}
	if before, after := n.Offset, ex.Size()-n.Offset-n.Type.Size(); before < cacheLinePad && after < cacheLinePad {
		t.Errorf("an executor's counters have %d bytes before them and %d after in the executor; "+
			"neither is a line, so a neighbouring object can share theirs", before, after)
	}
}

// TestTaskWholeLines pins task's size to a whole number of cache lines.
// Go allocates a pooled task in the size class of its size; a class that
// is a multiple of the line starts every object on a line boundary, so
// one caller writing its task's ids never shares a line with another
// writing the next task's head.
func TestTaskWholeLines(t *testing.T) {
	if size := unsafe.Sizeof(task{}); size%cacheLinePad != 0 {
		t.Errorf("task is %d bytes, not a whole number of %d-byte lines: resize its trailing padding", size, cacheLinePad)
	}
}
