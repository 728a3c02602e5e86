// Secure Multiplication (SM), Algorithm 1.
//
// C1 holds Epk(a), Epk(b); C2 holds sk. Output Epk(a*b) is known only to C1.
// Based on the identity (Equation 1):
//   a*b = (a + r_a)(b + r_b) - a*r_b - b*r_a - r_a*r_b   (mod N)
// C1 blinds both operands, C2 decrypts and multiplies the blinded values,
// and C1 strips the three cross terms homomorphically.
#ifndef SKNN_PROTO_SM_H_
#define SKNN_PROTO_SM_H_

#include <vector>

#include "proto/context.h"

namespace sknn {

/// \brief Epk(a*b) from Epk(a), Epk(b); one round trip.
Result<Ciphertext> SecureMultiply(ProtoContext& ctx, const Ciphertext& ea,
                                  const Ciphertext& eb);

/// \brief Element-wise SM over two equal-length vectors in one round
/// trip. This batching is what makes the per-record independence of
/// Section 5.3 exploitable.
Result<std::vector<Ciphertext>> SecureMultiplyBatch(
    ProtoContext& ctx, const std::vector<Ciphertext>& eas,
    const std::vector<Ciphertext>& ebs);

}  // namespace sknn

#endif  // SKNN_PROTO_SM_H_
