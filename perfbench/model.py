"""The system model re-derived from the package documentation.

The correctness oracles of the benchmark (``oracle.py`` and
``refsim.py``) build on this module and on numpy/scipy only: nothing
here imports ``fluidcell``, so an agreement between an oracle and the
package is a check of two separate implementations of one model.

Sources: the README's config keys and stock values, and the docstrings
of ``geometry.build_frame_budget`` (frame split), ``channel`` (port
correlation, LMMSE error variance), ``field`` (Campbell mean, Gamma
surrogate) and ``outage.sinr_threshold`` (rate-to-SINR threshold).
"""

import math

import numpy as np
from scipy import special

# stock values as the README lists them; a config file overrides keys
STOCK = {
    "bs_density": 5e-5,
    "path_loss_exponent": 4.0,
    "tx_power": 1.0,
    "noise_power": 1e-5,
    "channel_variance": 1.0,
    "num_fas": 4,
    "ports_per_fa": 15,
    "skipped_ports": 1,
    "aperture_wavelengths": 0.2,
    "wavelength": 0.06,
    "charge": 0.07,
    "viscosity": 0.002,
    "thickness_to_length": 0.2,
    "voltage_delta": 10.0,
    "coherence_bandwidth": 1e8,
    "coherence_time": 0.05,
    "estimation_fraction": 0.16,
    "rate": 1.0,
    "target_variance": 0.5,
    "trials": 20000,
    "seed": 1,
    "chunk_size": 2048,
    "faithful_pilots": 0,
}

_INTEGER_KEYS = {"num_fas", "ports_per_fa", "skipped_ports", "trials",
                 "seed", "chunk_size", "faithful_pilots"}


def read_config(path):
    """Flat ``key = value`` file on top of the stock values."""
    values = dict(STOCK)
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in STOCK:
                raise ValueError(f"{path}: unknown key {key!r}")
            values[key] = int(text) if key in _INTEGER_KEYS else float(text)
    return values


class Link:
    """Per-trained-port constants of one parameter set."""

    def __init__(self, values):
        self.values = dict(values)
        v = self.values
        self.num_fas = int(v["num_fas"])
        n = int(v["ports_per_fa"])
        stride = int(v["skipped_ports"]) + 1
        self.ports = list(range(1, n + 1, stride))
        count = len(self.ports)
        aperture = v["aperture_wavelengths"] * v["wavelength"]

        # frame split: the training share pays the droplet's travel
        # between trained ports, the rest is pilot time per port
        total = round(v["coherence_bandwidth"] * v["coherence_time"])
        training = round(v["estimation_fraction"] * total)
        speed = (v["charge"] / (6.0 * v["viscosity"])
                 * v["thickness_to_length"] * v["voltage_delta"])
        hop_s = aperture / speed * stride / (n - 1)
        switching = (0.0 if count == 1 else
                     self.num_fas * (count - 1) * hop_s
                     * v["coherence_bandwidth"])
        self.pilot_length = (training - switching) / (count * self.num_fas)
        if not self.pilot_length > 0.0:
            raise ValueError("no pilot time left after port switching")
        data_share = (total - training) / total
        self.threshold = 2.0 ** (v["rate"] / data_share) - 1.0

        self.a = v["path_loss_exponent"]
        self.density = v["bs_density"]
        self.variance = v["channel_variance"]
        self.snr = v["channel_variance"] * v["tx_power"] / v["noise_power"]
        # offset of each trained port from the first along the aperture
        self.offsets = np.array([(p - 1) / (n - 1) * aperture
                                 for p in self.ports])
        # correlation with the first port: J0 of the electrical spacing,
        # zero for the first port itself by the package's convention
        self.mu = np.array([0.0] + [
            special.j0(2.0 * math.pi * (p - 1) * v["aperture_wavelengths"]
                       / (n - 1))
            for p in self.ports[1:]
        ])

    def error_variance(self, r):
        """LMMSE error variance at link distance(s) ``r``.

        Noise plus Campbell-mean interference over received pilot power
        per use, against the pilot length.
        """
        a = self.a
        ratio = (r**a / self.snr
                 + 2.0 * math.pi * self.density * r**2 / (a - 2.0))
        return self.variance * ratio / (ratio + self.pilot_length)

    def campbell_mean(self, radius):
        """Mean faded interference from transmitters beyond ``radius``."""
        a = self.a
        return (2.0 * math.pi * self.density * self.variance
                * radius ** (2.0 - a) / (a - 2.0))
