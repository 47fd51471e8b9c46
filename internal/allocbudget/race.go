//go:build race

package allocbudget

const race = true
