"""The reference server serving an echo model: a scalar model of ARITY
coordinates that returns its first one and declines gradients.

    python echo_server.py ARITY
"""

import sys

from xmeter import model_server
from xmeter.handle import ModelHandle

model_server.serve(ModelHandle(arity=int(sys.argv[1]), output_kind="scalar",
                               predict_fn=lambda X: X[:, 0], gradient_capability="none",
                               name="echo"))
