package detutil

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[int]string{5: "e", 1: "a", 3: "c", 2: "b", 4: "d"}
	want := []int{1, 2, 3, 4, 5}
	for i := 0; i < 50; i++ { // many runs: map seed changes, order must not
		if got := SortedKeys(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
	if got := SortedKeys(map[string]int{}); len(got) != 0 {
		t.Fatalf("SortedKeys(empty) = %v, want empty", got)
	}
}
