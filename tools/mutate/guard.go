package main

// This file is also the one a mutant schema adds to the package under
// test, under that package's name: every guarded form calls these.

import (
	"os"
	"strconv"
)

// schemaMutant is the number of the mutant that is on, read once from the
// environment; 0, or none set, runs the original program.
var schemaMutant, _ = strconv.Atoi(os.Getenv("MUTANT"))

func schemaOn(k int) bool { return k == schemaMutant }

type schemaOrdered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~string
}

type schemaNumber interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~complex64 | ~complex128
}

// The flips: a < b, or a <= b with mutant k on; each operand is
// evaluated once, as in the original.
func schemaLSS[T schemaOrdered](k int, a, b T) bool {
	if k == schemaMutant {
		return a <= b
	}
	return a < b
}

func schemaLEQ[T schemaOrdered](k int, a, b T) bool {
	if k == schemaMutant {
		return a < b
	}
	return a <= b
}

func schemaGTR[T schemaOrdered](k int, a, b T) bool {
	if k == schemaMutant {
		return a >= b
	}
	return a > b
}

func schemaGEQ[T schemaOrdered](k int, a, b T) bool {
	if k == schemaMutant {
		return a > b
	}
	return a >= b
}

// The swaps: a + b, or a - b with mutant k on, and the reverse.
func schemaADD[T schemaNumber](k int, a, b T) T {
	if k == schemaMutant {
		return a - b
	}
	return a + b
}

func schemaSUB[T schemaNumber](k int, a, b T) T {
	if k == schemaMutant {
		return a + b
	}
	return a - b
}

// schemaPick is a constant expression's value a, or its mutant's b with
// mutant k on.
func schemaPick[T any](k int, a, b T) T {
	if k == schemaMutant {
		return b
	}
	return a
}
