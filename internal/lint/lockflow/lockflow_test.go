package lockflow_test

import (
	"testing"

	"kwsdbg/internal/lint/linttest"
	"kwsdbg/internal/lint/lockflow"
)

func TestLockflowFixture(t *testing.T) {
	lockflow.ResetForTest()
	linttest.Run(t, lockflow.Analyzer, "testdata/flow")
}

func TestLockflowGuardFixture(t *testing.T) {
	lockflow.ResetForTest()
	linttest.Run(t, lockflow.Analyzer, "testdata/guard")
}
