//go:build !amd64

package dist

func sq(a, b []byte) int { return sqGeneric(a, b) }

func sqLimit(a, b []byte, limit int) int { return sqLimitGeneric(a, b, limit) }
