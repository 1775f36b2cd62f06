//go:build !amd64

package sift

// gradients is gradientsGeneric: the assembly kernel exists only on amd64.
func gradients(mag, theta, gx, gy []float64) { gradientsGeneric(mag, theta, gx, gy) }
