package quarantine

import (
	"reflect"
	"testing"
)

// TestEntryIsPointerFree keeps the entry model honest: an Entry is the 32 B
// value MetaBytes charges for, and none of its fields can hold a pointer,
// so the rings, the pending list and the locked-in slices stay invisible to
// the garbage collector.
func TestEntryIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Entry{})
	if typ.Size() != 32 {
		t.Errorf("Entry is %d B, want 32", typ.Size())
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.String, reflect.Struct, reflect.Array:
			t.Errorf("Entry.%s is a %s; entries must stay pointer-free scalars", f.Name, f.Type.Kind())
		}
	}

	q := New()
	for i := uint64(1); i <= 3; i++ {
		admit(q, Entry{Base: i << 12, Size: 64})
	}
	if got, want := q.MetaBytes(), 3*(uint64(typ.Size())+16); got != want {
		t.Errorf("MetaBytes = %d for 3 entries, want %d (Entry size + 16 B each)", got, want)
	}
}
