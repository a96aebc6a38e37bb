"""Program-disturb (parasitic capacitance-coupling) error injection.

Section 3 of the paper: reprogramming a page perturbs the threshold
voltages of cells on *neighbouring wordlines* through capacitive coupling.
SLC's wide voltage windows absorb this; MLC's narrow windows do not, which
is why IPA on full MLC needs the pSLC or odd-MLC configuration.

The model is stochastic and deterministic-per-seed: each program or
reprogram of a victim wordline's neighbour draws a binomial number of
disturbed bits per ECC codeword at the mode's per-bit disturb rate.  The
chip accumulates these counts per page; reads compare them against the ECC
correction capability (:mod:`repro.flash.ecc`).
"""

from __future__ import annotations

import numpy as np

from repro.flash.ecc import EccConfig
from repro.flash.modes import ModeRules


class DisturbModel:
    """Injects disturb errors into pages adjacent to a programmed page."""

    def __init__(
        self,
        rules: ModeRules,
        ecc: EccConfig,
        page_size: int,
        seed: int = 0xF1A5,
    ) -> None:
        self._rules = rules
        self._ecc = ecc
        self._page_size = page_size
        self._rng = np.random.default_rng(seed)
        self._binomial = self._rng.binomial
        self._bits_per_codeword = ecc.codeword_bytes * 8
        self._n_codewords = ecc.codewords_for(page_size)
        self._rate_program = rules.disturb_rate_program
        self._rate_reprogram = rules.disturb_rate_reprogram
        self.total_injected_bits = 0

    def disturb_counts(self, reprogram: bool) -> np.ndarray:
        """Bit-error increments per codeword for one neighbour page.

        Args:
            reprogram: True for an in-place append (higher disturb rate),
                False for a first program.

        Returns:
            Array of per-codeword disturbed-bit counts (often all zero).
        """
        return self.draw(reprogram, 1)[0][0]

    def draw(
        self, reprogram: bool, victims: int
    ) -> tuple[np.ndarray, list[int], int]:
        """Batched draw plus per-victim and grand totals.

        One vectorized draw of shape ``(victims, codewords)``.  NumPy fills
        element-wise from the same bit stream, so row ``i`` is bit-identical
        to the ``i``-th of ``victims`` sequential :meth:`disturb_counts`
        calls — callers can batch the per-victim draws of one program
        operation without perturbing any seeded outcome.

        The totals are computed at the Python level (``tolist`` + ``sum``):
        for these few-element arrays that is ~3x cheaper than a ufunc
        reduction, and the hot caller needs the totals anyway to skip the
        (overwhelmingly common) all-zero outcome.

        Returns:
            ``(counts, row_totals, grand_total)``.
        """
        counts = self._binomial(
            self._bits_per_codeword,
            self._rate_reprogram if reprogram else self._rate_program,
            size=(victims, self._n_codewords),
        )
        row_totals = [sum(row) for row in counts.tolist()]
        total = sum(row_totals)
        self.total_injected_bits += total
        return counts, row_totals, total


def victim_table(
    pages_per_block: int,
    rules: ModeRules,
) -> tuple[tuple[int, ...], ...]:
    """Precomputed :func:`neighbour_pages` for every page-in-block index.

    The victim sets depend only on geometry and mode, so the chip computes
    this table once at construction instead of rebuilding the neighbour
    list on every program operation.
    """
    return tuple(
        tuple(neighbour_pages(p, pages_per_block, rules))
        for p in range(pages_per_block)
    )


def neighbour_pages(
    page_in_block: int,
    pages_per_block: int,
    rules: ModeRules,
) -> list[int]:
    """Pages whose cells are coupled to ``page_in_block``'s wordline.

    On MLC silicon the paired page shares the *same* cells, and pages on
    the two adjacent wordlines couple capacitively.  On SLC each page is
    its own wordline, so only the adjacent wordlines matter.
    """
    victims: list[int] = []
    if rules.mode.is_mlc_silicon:
        pair = rules.paired_page(page_in_block)
        if pair is not None and 0 <= pair < pages_per_block:
            victims.append(pair)
        wordline = page_in_block // 2
        for neighbour_wl in (wordline - 1, wordline + 1):
            for candidate in (neighbour_wl * 2, neighbour_wl * 2 + 1):
                if 0 <= candidate < pages_per_block:
                    victims.append(candidate)
    else:
        for candidate in (page_in_block - 1, page_in_block + 1):
            if 0 <= candidate < pages_per_block:
                victims.append(candidate)
    return victims
