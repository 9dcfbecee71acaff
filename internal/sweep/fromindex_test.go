package sweep

import (
	"testing"

	"anyscan/internal/index"
	"anyscan/internal/testutil"
)

func TestFromIndexRejectsBadMu(t *testing.T) {
	x := index.Build(testutil.Karate(), 1)
	if _, err := FromIndex(x, 0); err == nil {
		t.Fatal("mu=0 accepted")
	}
}
