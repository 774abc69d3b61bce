"""Virtual-time cost model for cryptographic operations.

The simulator does not measure Python's own crypto speed (meaningless for a
Rust-prototype reproduction); instead every protocol-level crypto call
charges a configurable number of virtual microseconds to the calling node's
CPU.  Defaults approximate Ed25519/BLS-class costs on the paper's 16-vCPU
Xeon machines.  These constants are the *calibration surface* of the whole
performance study — EXPERIMENTS.md records the values used for every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class CryptoCosts:
    """Per-operation CPU costs in microseconds."""

    sign_us: int = 55
    verify_us: int = 110
    share_sign_us: int = 60
    share_verify_us: int = 120
    combine_per_share_us: int = 20
    threshold_verify_us: int = 130
    vss_encrypt_base_us: int = 90
    vss_encrypt_per_share_us: int = 35
    vss_check_dealing_us: int = 140
    vss_partial_decrypt_us: int = 140
    vss_decrypt_per_share_us: int = 45
    hash_per_256b_us: int = 1
    commit_us: int = 2
    open_commit_us: int = 2

    def hash_us(self, size_bytes: int) -> int:
        """Hashing cost for a payload of ``size_bytes``."""
        blocks = max(1, (size_bytes + 255) // 256)
        return blocks * self.hash_per_256b_us

    def combine_us(self, n_shares: int) -> int:
        return self.combine_per_share_us * max(1, n_shares)

    def vss_encrypt_us(self, n_recipients: int) -> int:
        return self.vss_encrypt_base_us + self.vss_encrypt_per_share_us * n_recipients

    def vss_decrypt_us(self, n_shares: int) -> int:
        return self.vss_decrypt_per_share_us * max(1, n_shares)

    def scaled(self, factor: float) -> "CryptoCosts":
        """A uniformly faster/slower cost profile (CPU-speed ablations);
        ``scaled(0)`` is the zero-cost profile :data:`FREE_COSTS`."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return replace(
            self,
            **{
                f.name: int(round(getattr(self, f.name) * factor))
                for f in fields(self)
            },
        )


#: Default calibration (see DESIGN.md §5).
DEFAULT_COSTS = CryptoCosts()

#: Zero-cost profile for logic-only unit tests.
FREE_COSTS = DEFAULT_COSTS.scaled(0)

__all__ = ["CryptoCosts", "DEFAULT_COSTS", "FREE_COSTS"]
