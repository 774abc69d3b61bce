"""Cryptographic substrate.

Implements every primitive §II-B of the paper assumes, from scratch:

- ``private-sign`` / ``public-verify`` — per-process signatures
  (:mod:`repro.crypto.signatures`).
- ``share-sign`` / ``share-verify`` / ``share-combine`` / ``share-threshold``
  — a ``(2f+1, n)`` threshold signature (:mod:`repro.crypto.threshold`).
- ``vss-encrypt`` / ``vss-partial-decrypt`` / ``vss-decrypt`` — commit-reveal
  transaction obfuscation built on real Shamir secret sharing with Feldman
  verifiability (:mod:`repro.crypto.vss_encryption`).
- Collision-resistant hashing and Merkle trees (used by the Commit
  protocol to compress accepted-set piggybacks).

Security model: the algebra (field arithmetic, polynomial secret sharing,
Lagrange reconstruction, Feldman commitments) is implemented for real and
fully tested; *unforgeability* of plain signatures is modelled by a key
registry that plays the role of a PKI (processes cannot mint tags for keys
they do not hold — the simulator only hands each process its own signer).
Parameters are demo-grade (a 127-bit field), which does not affect protocol
behaviour; see DESIGN.md §2.

Every operation charges virtual CPU time through :mod:`repro.crypto.cost`
so compute-bound effects (Pompē's quadratic signature verification) shape
simulated performance the way they shape real deployments.
"""

from repro.crypto.field import PrimeField, DEFAULT_FIELD
from repro.crypto.polynomial import Polynomial, lagrange_interpolate_at
from repro.crypto.shamir import ShamirShare, split_secret, reconstruct_secret
from repro.crypto.feldman import FeldmanVSS, FeldmanCommitment, VerifiedShare
from repro.crypto.signatures import KeyRegistry, Signer, Signature
from repro.crypto.threshold import (
    ThresholdScheme,
    ThresholdSigner,
    SignatureShare,
    ThresholdSignature,
)
from repro.crypto.vss_encryption import (
    VssScheme,
    VssCipher,
    DecryptionShare,
    VssError,
)
from repro.crypto.merkle import MerkleTree, MerkleProof
from repro.crypto.cost import CryptoCosts, DEFAULT_COSTS
from repro.crypto.hashing import sha256_hex, sha256_bytes, digest_of

__all__ = [
    "PrimeField",
    "DEFAULT_FIELD",
    "Polynomial",
    "lagrange_interpolate_at",
    "ShamirShare",
    "split_secret",
    "reconstruct_secret",
    "FeldmanVSS",
    "FeldmanCommitment",
    "VerifiedShare",
    "KeyRegistry",
    "Signer",
    "Signature",
    "ThresholdScheme",
    "ThresholdSigner",
    "SignatureShare",
    "ThresholdSignature",
    "VssScheme",
    "VssCipher",
    "DecryptionShare",
    "VssError",
    "MerkleTree",
    "MerkleProof",
    "CryptoCosts",
    "DEFAULT_COSTS",
    "sha256_hex",
    "sha256_bytes",
    "digest_of",
]
