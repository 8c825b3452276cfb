"""Cross-core load-balancing policies.

The paper's baseline (vanilla Linux) and its state-of-the-art
comparators (ARM GTS, Linaro IKS), behind the
:class:`~repro.kernel.balancers.base.LoadBalancer` interface that
:class:`repro.core.balancer.SmartBalance` implements too.
"""

from repro.kernel.balancers.base import LoadBalancer, NullBalancer, Placement
from repro.kernel.balancers.gts import GtsBalancer
from repro.kernel.balancers.iks import IksBalancer
from repro.kernel.balancers.vanilla import VanillaBalancer

__all__ = [
    "LoadBalancer",
    "NullBalancer",
    "Placement",
    "VanillaBalancer",
    "GtsBalancer",
    "IksBalancer",
]
