package main

import (
	"strings"
	"testing"
)

const sampleFunc = `pitex/engine.go:82:		NewEngine		95.2%
pitex/engine.go:179:		Clone			100.0%
pitex/serve/gate.go:75:		newGate			88.9%
total:				(statements)	71.4%
`

func TestTotalCoverage(t *testing.T) {
	got, err := totalCoverage(strings.NewReader(sampleFunc))
	if err != nil {
		t.Fatalf("totalCoverage: %v", err)
	}
	if got != 71.4 {
		t.Fatalf("total = %v, want 71.4", got)
	}
}

func TestRunEnforcesFloor(t *testing.T) {
	if err := run(strings.NewReader(sampleFunc), 70.0); err != nil {
		t.Fatalf("coverage above floor rejected: %v", err)
	}
	if err := run(strings.NewReader(sampleFunc), 72.0); err == nil {
		t.Fatal("coverage below floor accepted")
	}
}

func TestTotalCoverageRejectsGarbage(t *testing.T) {
	if _, err := totalCoverage(strings.NewReader("not cover output\n")); err == nil {
		t.Fatal("garbage input accepted")
	}
	if _, err := totalCoverage(strings.NewReader("total: (statements) zz%\n")); err == nil {
		t.Fatal("unparseable total accepted")
	}
}
