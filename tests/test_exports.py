import types

import spectree


def test_all_names_exactly_the_public_names_of_the_package():
    public = {name for name, value in vars(spectree).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(spectree.__all__)) == len(spectree.__all__)
    assert set(spectree.__all__) == public
    for name in spectree.__all__:
        assert getattr(spectree, name) is not None
