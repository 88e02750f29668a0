package server

import (
	"testing"

	"activitytraj/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
