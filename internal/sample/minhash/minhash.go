// Package minhash estimates set resemblance from min-wise hash signatures
// after Broder ("On the resemblance and containment of documents") as
// applied to streams by Datar and Muthukrishnan ("Estimating rarity and
// similarity over data stream windows").
//
// A signature is the k smallest distinct hash values of a set's elements,
// a uniform sample of the set. The operator maintains one per group with
// the kth_smallest_value$ superaggregate (examples/minhash); this package
// compares two of them.
package minhash

// Resemblance estimates the Jaccard similarity |A∩B| / |A∪B| of two sets
// from their signatures, each sorted in increasing order and hashed with
// the same function. It takes the k smallest values of the union of the
// signatures and counts the fraction present in both (Broder's
// single-hash k-minimum estimator). Two empty signatures are identical
// sets and give 1.
func Resemblance(sa, sb []uint64, k int) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	// Merge the two sorted signatures, keeping the k smallest union values.
	inBoth, taken := 0, 0
	i, j := 0, 0
	for taken < k && (i < len(sa) || j < len(sb)) {
		switch {
		case j >= len(sb) || (i < len(sa) && sa[i] < sb[j]):
			i++
		case i >= len(sa) || sb[j] < sa[i]:
			j++
		default: // equal: in both sets
			inBoth++
			i++
			j++
		}
		taken++
	}
	if taken == 0 {
		return 0
	}
	return float64(inBoth) / float64(taken)
}
