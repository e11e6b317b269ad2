package live

import (
	"reflect"
	"strings"
	"testing"
)

// TestServerLayoutByWriter pins Server's layout: what every dispatcher
// iteration and every Poll reads (quanta, policy epoch, stop and abort
// flags, the configuration and the slice headers) must sit a cache line
// or more away from everything a request writes on its way in (the id
// and round-robin cursors, submitMu's reader count, the submit-side
// counters) or out (the completion-side counters), and the two written
// groups a line or more from each other, so a Submit on one CPU does not
// invalidate the line a completion on another is counting on. A field
// moved or added in the wrong group fails here rather than as a few
// percent nobody can bisect. Offsets come from reflect (the same numbers
// as unsafe.Offsetof) so the test can also insist that every field is in
// a group.
func TestServerLayoutByWriter(t *testing.T) {
	groups := map[string][]string{
		"read-mostly": {"opts", "handler", "shards", "locals", "occ", "workers", "shardOf",
			"tr", "tail", "comp", "classLimit", "coopTimeshare", "t0", "quantum", "classQuanta", "polState",
			"stopped", "abort"},
		"submit": {"rr", "nextID", "submitMu", "stopping", "stats.submitted", "stats.rejected",
			"stats.shed", "stats.classSubmitted", "stats.classRejected"},
		"completion": {"stats.completed", "stats.classCompleted", "stats.expired", "stats.aborted",
			"stats.preemptions", "stats.dispatcherRun", "stats.steals"},
		"cold": {"policyMu", "started", "wg", "startOnce", "stopOnce"},
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
		{"read-mostly", "submit"}, {"read-mostly", "completion"}, {"submit", "completion"},
		{"cold", "submit"}, {"cold", "completion"},
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
